package simcpu

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestExecuteAccounting(t *testing.T) {
	c := New(2, 1.0)
	ctx := context.Background()
	if err := c.Execute(ctx, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Executed != 1 || st.BusyScaled != 10*time.Millisecond {
		t.Errorf("stats = %+v", st)
	}
	if c.Cores() != 2 || c.Scale() != 1.0 {
		t.Errorf("config accessors wrong")
	}
}

func TestZeroAndNegativeDurations(t *testing.T) {
	c := New(1, 1.0)
	if err := c.Execute(context.Background(), 0); err != nil {
		t.Error(err)
	}
	if err := c.Execute(context.Background(), -time.Second); err != nil {
		t.Error(err)
	}
	if c.Stats().Executed != 0 {
		t.Error("zero-cost executions counted")
	}
}

// Concurrent work beyond the core count must serialize: 4 tasks of 20ms
// on 2 cores take >= 40ms.
func TestCoreContention(t *testing.T) {
	c := New(2, 1.0)
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = c.Execute(ctx, 20*time.Millisecond)
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Errorf("4x20ms on 2 cores finished in %s (< 40ms): no contention modeled", elapsed)
	}
	if st := c.Stats(); st.MaxQueueDelay == 0 {
		t.Error("no queueing delay recorded despite contention")
	}
}

// Capacity must not be throttled by host-timer granularity: 200 small
// (100us) costs from concurrent goroutines on 1 core represent 20ms of
// work and must complete in far less time than 200 individual coarse
// sleeps would take.
func TestSmallCostsDoNotQuantize(t *testing.T) {
	c := New(1, 1.0)
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = c.Execute(ctx, 100*time.Microsecond)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed < 20*time.Millisecond {
		t.Errorf("20ms of work finished in %s: capacity overcounted", elapsed)
	}
	if elapsed > 150*time.Millisecond {
		t.Errorf("20ms of work took %s: timer granularity is throttling", elapsed)
	}
}

func TestScale(t *testing.T) {
	c := New(1, 0.1)
	start := time.Now()
	_ = c.Execute(context.Background(), 200*time.Millisecond)
	elapsed := time.Since(start)
	if elapsed > 100*time.Millisecond {
		t.Errorf("scaled execution took %s, want ~20ms", elapsed)
	}
}

func TestStop(t *testing.T) {
	c := New(1, 1.0)
	c.Stop()
	if err := c.Execute(context.Background(), time.Millisecond); err != ErrStopped {
		t.Errorf("Execute after Stop: %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	c := New(1, 1.0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := c.Execute(ctx, time.Hour)
	if err != context.Canceled {
		t.Errorf("Execute with canceled ctx: %v", err)
	}
}

func TestUtilization(t *testing.T) {
	c := New(2, 1.0)
	_ = c.Execute(context.Background(), 50*time.Millisecond)
	u := c.Utilization(100 * time.Millisecond)
	if u < 0.2 || u > 0.3 {
		t.Errorf("utilization = %f, want 0.25", u)
	}
	if c.Utilization(0) != 0 {
		t.Error("zero-elapsed utilization not 0")
	}
}

// TestPooledTimersNeverFireEarly runs Execute from 64 goroutines that
// share the timer pool, half of them cancelling mid-sleep. Every call
// that returns nil must have slept at least its duration: a cancelled
// timer put back with a pending fire, or one rearmed while still
// running, would let a later call return early. Run it under
// -race -count=10.
func TestPooledTimersNeverFireEarly(t *testing.T) {
	const goroutines, calls = 64, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := New(1, 1.0) // idle: nothing else queues on this CPU
			cancels := g%2 == 1
			for i := 0; i < calls; i++ {
				d := time.Duration(200+(g*37+i*101)%1800) * time.Microsecond
				ctx, cancel := context.WithCancel(context.Background())
				if cancels {
					// Cancel between halfway and the timer's own
					// deadline, so some cancellations race its fire.
					time.AfterFunc(d/2+d*time.Duration(i%8)/14, cancel)
				}
				start := time.Now()
				err := c.Execute(ctx, d)
				elapsed := time.Since(start)
				cancel()
				switch {
				case err == nil && elapsed < d:
					t.Errorf("goroutine %d call %d: Execute(%s) returned after %s", g, i, d, elapsed)
				case err != nil && (!cancels || err != context.Canceled):
					t.Errorf("goroutine %d call %d: Execute: %v", g, i, err)
				}
			}
			if got := c.Stats().Executed; got != calls {
				t.Errorf("goroutine %d: Executed = %d, want %d", g, got, calls)
			}
		}(g)
	}
	wg.Wait()
}

// TestSleepPoolsEveryTimer checks that a cancelled Sleep pools its
// timer too, and that a pooled timer which fired unreceived delivers no
// stale tick once rearmed: since Go 1.23, Stop and Reset discard it. It
// runs on one P, so that every Get sees what the Put before it pooled.
func TestSleepPoolsEveryTimer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for timerPool.Get() != nil { // empty the pool
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("cancelled Sleep: %v", err)
	}
	if timerPool.Get() == nil {
		t.Error("cancelled Sleep did not pool its timer")
	}
	fired := GetTimer(time.Microsecond)
	time.Sleep(time.Millisecond) // fires; nothing receives it
	PutTimer(fired)
	rearmed := GetTimer(time.Hour)
	defer PutTimer(rearmed)
	if rearmed != fired {
		t.Fatal("GetTimer did not reuse the pooled timer")
	}
	select {
	case <-rearmed.C:
		t.Error("a rearmed timer delivered the tick it fired before it was pooled")
	default:
	}
}

// TestExecuteAllocs pins a sleeping Execute at no more than one
// allocation once the timer pool is warm.
func TestExecuteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	c := New(1, 1.0)
	ctx := context.Background()
	_ = c.Execute(ctx, 50*time.Microsecond)
	if allocs := testing.AllocsPerRun(100, func() { _ = c.Execute(ctx, 50*time.Microsecond) }); allocs > 1 {
		t.Errorf("Execute: %.1f allocations, want <= 1", allocs)
	}
}

func BenchmarkExecute(b *testing.B) {
	c := New(1, 1.0)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.Execute(ctx, time.Microsecond); err != nil {
			b.Fatal(err)
		}
	}
}
