package metrics

import (
	"time"
)

// liveCounters are monotone run totals maintained inline by the
// recording callbacks (under Collector.mu), cheap enough to read on
// every /metrics scrape or sampler tick without scanning the record map.
type liveCounters struct {
	Submitted int // distinct proposals submitted
	Committed int // committed valid
	Aborted   int // committed invalid (MVCC, early abort, policy, ...)
	Rejected  int // client-side rejections
	InFlight  int // submitted, not yet committed or rejected
	Blocks    int // blocks cut

	// lagSum/lagCount accumulate per-(peer, block) commit lag so a
	// sampler window's mean lag is a cheap delta of two prefix sums.
	lagSum   time.Duration
	lagCount int
}

// LiveStats is a point-in-time snapshot of the collector's run totals.
// All values are monotone counters except InFlight.
type LiveStats struct {
	Submitted int
	Committed int
	Aborted   int
	Rejected  int
	InFlight  int
	Blocks    int
}

// Live returns the current run totals.
func (c *Collector) Live() LiveStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return LiveStats{
		Submitted: c.live.Submitted,
		Committed: c.live.Committed,
		Aborted:   c.live.Aborted,
		Rejected:  c.live.Rejected,
		InFlight:  c.live.InFlight,
		Blocks:    c.live.Blocks,
	}
}

// SamplePoint is one windowed time-series sample: rates and gauges over
// the interval ending At. Durations and rates are wall-clock; divide by
// the run's TimeScale to convert to model time.
type SamplePoint struct {
	At time.Time `json:"at"`
	// TPS is committed-valid transactions per wall second in the window.
	TPS float64 `json:"tps"`
	// CommitLag is the mean block-cut→peer-commit lag of the window's
	// per-(peer, block) commits (0 when none committed).
	CommitLag time.Duration `json:"commit_lag_ns"`
	// AbortRate is aborted / (aborted + committed) inside the window.
	AbortRate float64 `json:"abort_rate"`
	// InFlight is the submitted-but-unresolved gauge at sample time.
	InFlight int `json:"in_flight"`
}

// samplerKeep bounds the retained time series (ring buffer).
const samplerKeep = 720

// StartSampler begins sampling the live counters every interval,
// retaining a bounded ring of SamplePoints, and returns a stop
// function. A second call replaces the running sampler. Interval <= 0
// defaults to one second.
func (c *Collector) StartSampler(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	c.samplerMu.Lock()
	if c.samplerStop != nil {
		close(c.samplerStop)
	}
	stopCh := make(chan struct{})
	c.samplerStop = stopCh
	c.samplerMu.Unlock()

	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var prev struct {
			at        time.Time
			committed int
			aborted   int
			lagSum    time.Duration
			lagCount  int
		}
		prev.at = time.Now()
		c.mu.Lock()
		prev.committed = c.live.Committed
		prev.aborted = c.live.Aborted
		prev.lagSum = c.live.lagSum
		prev.lagCount = c.live.lagCount
		c.mu.Unlock()
		for {
			select {
			case <-stopCh:
				return
			case now := <-tick.C:
				c.mu.Lock()
				committed := c.live.Committed
				aborted := c.live.Aborted
				lagSum := c.live.lagSum
				lagCount := c.live.lagCount
				inFlight := c.live.InFlight
				c.mu.Unlock()
				p := SamplePoint{At: now, InFlight: inFlight}
				if dt := now.Sub(prev.at).Seconds(); dt > 0 {
					p.TPS = float64(committed-prev.committed) / dt
				}
				if done := (committed - prev.committed) + (aborted - prev.aborted); done > 0 {
					p.AbortRate = float64(aborted-prev.aborted) / float64(done)
				}
				if n := lagCount - prev.lagCount; n > 0 {
					p.CommitLag = (lagSum - prev.lagSum) / time.Duration(n)
				}
				prev.at = now
				prev.committed, prev.aborted = committed, aborted
				prev.lagSum, prev.lagCount = lagSum, lagCount

				c.samplerMu.Lock()
				c.samples = append(c.samples, p)
				if len(c.samples) > samplerKeep {
					c.samples = c.samples[len(c.samples)-samplerKeep:]
				}
				c.samplerMu.Unlock()
			}
		}
	}()
	var once bool
	return func() {
		c.samplerMu.Lock()
		defer c.samplerMu.Unlock()
		if !once && c.samplerStop == stopCh {
			close(stopCh)
			c.samplerStop = nil
		}
		once = true
	}
}

// LatestSample returns the most recent sample, if any.
func (c *Collector) LatestSample() (SamplePoint, bool) {
	c.samplerMu.Lock()
	defer c.samplerMu.Unlock()
	if len(c.samples) == 0 {
		return SamplePoint{}, false
	}
	return c.samples[len(c.samples)-1], true
}
