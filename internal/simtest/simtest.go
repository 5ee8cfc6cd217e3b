//go:build goexperiment.synctest

package simtest

import (
	"runtime"
	"testing"
	"testing/synctest"
	"time"
)

// guard bounds a bubble's wall time. A bubble that outlives it is
// stuck: a wait that spins at its deadline never lets virtual time move
// on, and a goroutine left blocked outside the bubble's reach never
// lets it end.
const guard = 2 * time.Minute

// Run runs f in a synctest bubble and fails t if the bubble is still
// running after guard. The bubble ending proves that every goroutine f
// started has exited.
//
// simcpu pools its timers process-wide, and a timer belongs to the
// bubble, or the outside, that made it: one made outside cannot time a
// wait inside, and one made inside panics when reset outside. So Run
// empties the pool before the bubble and again after it; a sync.Pool
// drops what it holds within two garbage collections.
func Run(t *testing.T, f func()) {
	t.Helper()
	drainPools()
	done := make(chan struct{})
	go func() {
		defer close(done)
		synctest.Run(f)
	}()
	select {
	case <-done:
	case <-time.After(guard):
		t.Fatalf("bubble still running after %v of wall time", guard)
	}
	drainPools()
}

// drainPools empties every sync.Pool: the first collection moves what
// a pool holds to its victim cache, the second drops it.
func drainPools() {
	runtime.GC()
	runtime.GC()
}
