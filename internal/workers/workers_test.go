package workers

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fabricsim/internal/simtest"
)

// fn adapts a function to Job.
type fn func()

func (f fn) Run() { f() }

// settle waits until the goroutine count is at most want, and returns
// the count.
func settle(want int) int {
	simtest.Until(5*time.Second, func() bool { return runtime.NumGoroutine() <= want })
	return runtime.NumGoroutine()
}

// TestPoolRunsEveryJobAtOnce hands out more jobs than the cache holds,
// each waiting on a barrier that opens only once all have started: they
// end only if the pool runs all of them at once. A pool that bounds its
// busy workers deadlocks here. Afterwards at most MaxIdle workers stay
// parked, and Close and Wait end them all.
func TestPoolRunsEveryJobAtOnce(t *testing.T) {
	const jobs = 3 * MaxIdle
	before := runtime.NumGoroutine()
	var p Pool[fn]
	var started, waitedOut atomic.Int32
	barrier := make(chan struct{})
	var done sync.WaitGroup
	done.Add(jobs)
	for i := 0; i < jobs; i++ {
		ok := p.Go(func() {
			defer done.Done()
			if started.Add(1) == jobs {
				close(barrier)
			}
			select {
			case <-barrier:
			case <-time.After(5 * time.Second):
				waitedOut.Add(1)
			}
		})
		if !ok {
			t.Fatal("an open pool refused a job")
		}
	}
	done.Wait()
	if n := waitedOut.Load(); n > 0 {
		t.Fatalf("%d of %d jobs gave up waiting for the others to start", n, jobs)
	}
	if grown := settle(before+MaxIdle) - before; grown > MaxIdle {
		t.Errorf("%d workers left after the jobs ended, want at most %d parked", grown, MaxIdle)
	}
	p.Close()
	p.Wait()
	if after := settle(before); after > before {
		t.Errorf("%d goroutines after Close and Wait, %d before the pool", after, before)
	}
}

// TestPoolReusesParkedWorker runs jobs one after another: each finds
// the worker the one before parked, so the goroutine count does not grow.
func TestPoolReusesParkedWorker(t *testing.T) {
	var p Pool[fn]
	defer func() { p.Close(); p.Wait() }()
	ran := make(chan struct{})
	p.Go(func() { ran <- struct{}{} })
	<-ran
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		p.Go(func() { ran <- struct{}{} })
		<-ran
	}
	if after := runtime.NumGoroutine(); after > before+1 {
		t.Errorf("100 jobs in turn grew the goroutine count from %d to %d", before, after)
	}
}

// TestPoolCloseRefusesAndWaits closes a pool while one job runs: a later
// job is refused, and Wait returns only once the busy job has ended.
func TestPoolCloseRefusesAndWaits(t *testing.T) {
	var p Pool[fn]
	release := make(chan struct{})
	var ended atomic.Bool
	p.Go(func() {
		<-release
		ended.Store(true)
	})
	p.Close()
	if p.Go(func() { t.Error("a closed pool ran a job") }) {
		t.Error("a closed pool accepted a job")
	}
	p.Close() // a second Close does nothing
	go close(release)
	p.Wait()
	if !ended.Load() {
		t.Error("Wait returned before the busy job ended")
	}
}
