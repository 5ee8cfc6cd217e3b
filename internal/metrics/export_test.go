package metrics

// Samples returns a copy of the retained time series, oldest first.
func (c *Collector) Samples() []SamplePoint {
	c.samplerMu.Lock()
	defer c.samplerMu.Unlock()
	out := make([]SamplePoint, len(c.samples))
	copy(out, c.samples)
	return out
}
