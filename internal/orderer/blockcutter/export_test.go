package blockcutter

// Pending returns the number of transactions awaiting a cut.
func (c *Cutter) Pending() int { return len(c.pending) }
