//go:build goexperiment.synctest

package kafka

import (
	"context"
	"testing"
	"time"

	"fabricsim/internal/simtest"
)

// TestFetchLongPollEndsAtDeadline runs a fetch on an empty partition
// in virtual time: the long poll must return an empty reply exactly
// MaxWait after it began, having parked on the partition's wake
// channel. A poll that does not treat the deadline instant itself as
// expired re-arms a zero-length timer there forever, and virtual time
// never moves past it, so simtest's wall-clock guard catches the spin.
// Run with GOEXPERIMENT=synctest.
func TestFetchLongPollEndsAtDeadline(t *testing.T) {
	const maxWait = 100 * time.Millisecond
	simtest.Run(t, func() {
		b := &Broker{partitions: map[int]*partitionState{}}
		b.installPartition(0, "broker1", []string{"broker1"}, 1)
		start := time.Now()
		reply, _, err := b.handleFetch(context.Background(), "client", &FetchArgs{MaxWait: maxWait})
		if err != nil {
			t.Errorf("fetch: %v", err)
			return
		}
		if got := reply.(*FetchReply); len(got.Records) != 0 || got.HighWatermark != 0 {
			t.Errorf("reply = %+v, want empty", got)
		}
		if waited := time.Since(start); waited != maxWait {
			t.Errorf("long poll took %v of virtual time, want %v", waited, maxWait)
		}
		if b.partition(0).wake == nil {
			t.Error("long poll returned without parking on the partition's wake channel")
		}
	})
}
