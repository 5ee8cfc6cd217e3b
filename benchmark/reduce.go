package main

import (
	"sort"
	"time"
)

// modelSeconds converts a wall-clock duration into model seconds.
func modelSeconds(d time.Duration) float64 { return d.Seconds() / timeScale }

// percentile returns the pct-th percentile (0..100) of sorted values by
// nearest rank, in integer arithmetic so the rank never depends on
// float rounding; 0 for an empty slice.
func percentile(sorted []float64, pct int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[pct*(len(sorted)-1)/100]
}

// median is the middle value, or the mean of the middle two.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentiles are the candidates of the tail-percentile rule, highest first.
var tailPercentiles = []int{99, 95, 90, 75}

// tailPercentile is the percentile rule: the highest candidate whose
// nearest-rank sample still has at least ten samples beyond it, so the
// reported tail is never set by a handful of outliers. Too small a
// sample for any candidate falls back to the median.
func tailPercentile(n int) int {
	for _, pct := range tailPercentiles {
		if beyond := n - 1 - pct*(n-1)/100; beyond >= 10 {
			return pct
		}
	}
	return 50
}

// latencyStats is a median and a tail with the sample count behind them.
type latencyStats struct {
	n       int
	p50     float64
	tail    float64
	tailPct int // which percentile tail is (99 when the sample supports it)
}

func reduceLatencies(values []float64) latencyStats {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pct := tailPercentile(len(s))
	return latencyStats{n: len(s), p50: percentile(s, 50), tail: percentile(s, pct), tailPct: pct}
}

// dueLatency is an open-loop transaction's latency: from the instant the
// arrival was due, not the instant the generator got round to sending
// it, so a stall in the generator or the program is charged to every
// arrival it delayed.
func dueLatency(due, done time.Time) time.Duration { return done.Sub(due) }

// clock is the time source of the open-loop schedule; tests inject a
// virtual one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// runSchedule fires arrival i at start + offset + i*gap for every due
// instant before end, never early and never skipping one: an arrival
// whose due instant has already passed fires at once. fire receives the
// due instant and how late the generator ran.
func runSchedule(clk clock, start time.Time, offset, gap time.Duration, end time.Time, fire func(due time.Time, late time.Duration)) {
	for due := start.Add(offset); due.Before(end); due = due.Add(gap) {
		if d := due.Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		fire(due, clk.Now().Sub(due))
	}
}

// interval is a half-open span of time.
type interval struct{ start, end time.Time }

// selfTime is a span's duration minus the part of it its child spans
// cover. Children may overlap each other and may stick out of the
// parent; overlap is counted once and the excess is ignored.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var covered time.Duration
	var reach time.Time
	for _, c := range clipped {
		if c.start.After(reach) {
			reach = c.start
		}
		if c.end.After(reach) {
			covered += c.end.Sub(reach)
			reach = c.end
		}
	}
	return parent.end.Sub(parent.start) - covered
}
