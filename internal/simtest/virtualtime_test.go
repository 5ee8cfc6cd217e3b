//go:build goexperiment.synctest

package simtest

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestUntilInVirtualTime runs Until in a bubble, where virtual time
// makes each wait exact: a condition that already holds costs no time,
// one that turns true at the deadline itself is seen, on the poll
// schedule or between two of its checks, and a wait that never ends
// early takes its whole time in virtual time but well under a wall
// second, because Until sleeps between checks instead of spinning.
func TestUntilInVirtualTime(t *testing.T) {
	t.Run("true at once", func(t *testing.T) {
		Run(t, func() {
			start := time.Now()
			if !Until(time.Hour, func() bool { return true }) {
				t.Error("Until = false for a condition that holds")
			}
			if waited := time.Since(start); waited != 0 {
				t.Errorf("Until waited %v for a condition that holds", waited)
			}
		})
	})
	t.Run("true at the deadline", func(t *testing.T) {
		for _, within := range []time.Duration{10 * poll, 10*poll + poll/2} {
			Run(t, func() {
				var ready atomic.Bool
				go func() {
					time.Sleep(within)
					ready.Store(true)
				}()
				if !Until(within, ready.Load) {
					t.Errorf("Until(%v) missed a condition that turned true at its deadline", within)
				}
			})
		}
	})
	t.Run("ten model seconds", func(t *testing.T) {
		began := time.Now()
		Run(t, func() {
			start := time.Now()
			if Until(10*time.Second, func() bool { return false }) {
				t.Error("Until = true for a condition that never holds")
			}
			if waited := time.Since(start); waited < 10*time.Second {
				t.Errorf("Until gave up after %v, before its 10s deadline", waited)
			}
		})
		if wall := time.Since(began); wall >= time.Second {
			t.Errorf("a 10 model-second wait took %v of wall time", wall)
		}
	})
}
