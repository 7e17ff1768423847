package nat

// Mappings reports the number of live translation entries.
func (g *Gateway) Mappings() int { return len(g.byExternal) }
