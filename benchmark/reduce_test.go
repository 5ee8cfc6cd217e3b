package main

import (
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{5000, 99},
		{1000, 99},
		{902, 99}, // rank 891 of 0..901 leaves exactly ten beyond
		{901, 95}, // p99 would leave nine
		{200, 95},
		{100, 90},
		{45, 75},
		{20, 50},
		{0, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestReduceLatenciesReportsCountMedianAndTail(t *testing.T) {
	values := make([]float64, 2000)
	for i := range values {
		values[i] = float64(2000 - i) // 2000..1, unsorted on purpose
	}
	st := reduceLatencies(values)
	if st.n != 2000 || st.tailPct != 99 {
		t.Fatalf("n=%d tailPct=%d, want 2000 and 99", st.n, st.tailPct)
	}
	if st.p50 != 1000 || st.tail != 1980 {
		t.Errorf("p50=%v tail=%v, want 1000 and 1980", st.p50, st.tail)
	}
	if values[0] != 2000 {
		t.Error("reduceLatencies reordered its input")
	}
	small := reduceLatencies([]float64{3, 1, 2})
	if small.n != 3 || small.tailPct != 50 || small.tail != 2 {
		t.Errorf("three samples: %+v, want the median as the tail", small)
	}
}

func TestMedianAveragesTheMiddlePair(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %v, want 5", got)
	}
}

func at(ms int) time.Time { return time.Unix(1000, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	parent := interval{at(0), at(100)}
	ms := func(d time.Duration) int { return int(d / time.Millisecond) }
	for _, c := range []struct {
		name     string
		children []interval
		want     int
	}{
		{"no children", nil, 100},
		{"one child", []interval{{at(10), at(30)}}, 80},
		{"overlapping children count once", []interval{{at(10), at(30)}, {at(20), at(50)}}, 60},
		{"child sticking out is clipped", []interval{{at(90), at(120)}, {at(-20), at(5)}}, 85},
		{"child outside is ignored", []interval{{at(100), at(150)}}, 100},
		{"nested child adds nothing", []interval{{at(10), at(60)}, {at(20), at(30)}}, 50},
		{"full cover", []interval{{at(0), at(40)}, {at(40), at(100)}}, 0},
		{"unsorted input", []interval{{at(70), at(80)}, {at(10), at(20)}}, 80},
	} {
		if got := ms(selfTime(parent, c.children)); got != c.want {
			t.Errorf("%s: self time %d ms, want %d", c.name, got, c.want)
		}
	}
}

// fakeClock is virtual time: Sleep advances it and returns at once.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// An arrival that blocks the generator for 35 ms delays the next three
// arrivals. Timed from when they were due, their latency includes the
// wait the stall imposed; timed from when they were sent, it would not.
func TestDueTimeLatencyChargesAStallToTheArrivalsItDelayed(t *testing.T) {
	const gap, service = 10 * time.Millisecond, 5 * time.Millisecond
	clk := &fakeClock{now: at(0)}
	start := clk.now
	type arrival struct {
		due        time.Time
		late       time.Duration
		dueLat     time.Duration
		sendBasedL time.Duration
	}
	var got []arrival
	runSchedule(clk, start, 0, gap, start.Add(10*gap), func(due time.Time, late time.Duration) {
		sent := clk.Now()
		done := sent.Add(service)
		got = append(got, arrival{due, late, dueLatency(due, done), done.Sub(sent)})
		if len(got) == 4 { // arrival 3 stalls the generator
			clk.Sleep(35 * time.Millisecond)
		}
	})
	if len(got) != 10 {
		t.Fatalf("%d arrivals fired, want all 10 (a stall must not skip arrivals)", len(got))
	}
	wantLate := []time.Duration{0, 0, 0, 0, 25, 15, 5, 0, 0, 0}
	for i, a := range got {
		if want := start.Add(time.Duration(i) * gap); !a.due.Equal(want) {
			t.Errorf("arrival %d due %v, want %v", i, a.due, want)
		}
		want := wantLate[i] * time.Millisecond
		if a.late != want {
			t.Errorf("arrival %d fired %v late, want %v", i, a.late, want)
		}
		if a.dueLat != want+service {
			t.Errorf("arrival %d due-time latency %v, want %v", i, a.dueLat, want+service)
		}
		if a.sendBasedL != service {
			t.Errorf("arrival %d send-based latency %v: the control should hide the stall", i, a.sendBasedL)
		}
	}
}

func TestRunScheduleStaggersClientsByOffset(t *testing.T) {
	clk := &fakeClock{now: at(0)}
	var dues []time.Time
	runSchedule(clk, at(0), 3*time.Millisecond, 8*time.Millisecond, at(20), func(due time.Time, _ time.Duration) {
		dues = append(dues, due)
	})
	want := []time.Time{at(3), at(11), at(19)}
	if len(dues) != len(want) {
		t.Fatalf("fired at %v, want %v", dues, want)
	}
	for i := range want {
		if !dues[i].Equal(want[i]) {
			t.Errorf("arrival %d due %v, want %v", i, dues[i], want[i])
		}
	}
}
