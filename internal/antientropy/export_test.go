package antientropy

// Helpers for the examples and tests: they read a node's ring and
// membership view, which the package does not export.

// OwnedStripes returns the stripes node i owns on its own ring.
func OwnedStripes(c *Cluster, i int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	nd := c.nodes[i]
	return nd.ring.StripesOwnedBy(nd.id)
}

// MemberState returns node i's membership opinion of member id.
func MemberState(c *Cluster, i int, id string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i].view.State(id).String()
}
