package dhcp

// Bound reports whether the client currently holds a lease.
func (c *Client) Bound() bool { return c.bound }
