package can

// NeighborCount reports the size of the neighbor set.
func (n *Node) NeighborCount() int { return len(n.neighbors) }
