package blockcutter

import "time"

// Pending returns the number of transactions awaiting a cut.
func (c *Cutter) Pending() int { return len(c.pending) }

// Deadline returns the time at which the pending batch must be cut, and
// whether a batch is pending at all.
func (c *Cutter) Deadline() (time.Time, bool) {
	if len(c.pending) == 0 || !c.hasTime {
		return time.Time{}, false
	}
	return c.started.Add(c.cfg.BatchTimeout), true
}
