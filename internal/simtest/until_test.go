package simtest

import (
	"testing"
	"time"
)

// TestUntilTrueAtOnce holds Until to one check of a condition that
// already holds: it returns before its first sleep.
func TestUntilTrueAtOnce(t *testing.T) {
	calls := 0
	if !Until(time.Hour, func() bool { calls++; return true }) {
		t.Fatal("Until = false for a condition that holds")
	}
	if calls != 1 {
		t.Errorf("condition checked %d times, want 1", calls)
	}
}
