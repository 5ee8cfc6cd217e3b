//go:build goexperiment.synctest

package simcpu

import (
	"context"
	"runtime"
	"testing"
	"time"

	"fabricsim/internal/simtest"
)

// TestSleepInVirtualTime pools a timer outside a bubble, sleeps an hour
// inside one, then sleeps outside again, on one P so that every Get
// sees what the Put before it pooled. The hour must pass in exactly one
// hour of virtual time: a timer pooled outside would time it on the
// wall clock, and the bubble would hang. The last Sleep must not reset
// a timer pooled inside, which panics. Run with GOEXPERIMENT=synctest.
func TestSleepInVirtualTime(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	if err := Sleep(ctx, time.Microsecond); err != nil {
		t.Fatalf("Sleep before the bubble: %v", err)
	}
	simtest.Run(t, func() {
		start := time.Now()
		if err := Sleep(ctx, time.Hour); err != nil {
			t.Errorf("Sleep in the bubble: %v", err)
		}
		if slept := time.Since(start); slept != time.Hour {
			t.Errorf("Sleep(1h) took %v of virtual time", slept)
		}
	})
	if err := Sleep(ctx, time.Microsecond); err != nil {
		t.Fatalf("Sleep after the bubble: %v", err)
	}
}
