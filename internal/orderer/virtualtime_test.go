//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package orderer

import (
	"context"
	"testing"
	"testing/synctest"
	"time"
)

// bareOrderer is an OSN with one chain and no endpoint or consenter:
// enough to serve KindGetBlocks and cut blocks by hand.
func bareOrderer() *Orderer {
	return &Orderer{
		chains:      map[string]*chain{DefaultChannel: newChain(DefaultChannel)},
		channelList: []string{DefaultChannel},
	}
}

// inBubble runs f in a synctest bubble, failing t if the bubble is
// still running after 10 s of wall time: a poll that spins at its
// deadline never lets virtual time move past it. Run these tests alone
// (-run), as CI does: simcpu's timer pool is process-wide, and a timer
// pooled by an earlier test outside the bubble cannot time a wait
// inside it.
func inBubble(t *testing.T, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		synctest.Run(f)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("poll still running after 10s of wall time")
	}
}

// TestDeliverPollEndsAtWaitInVirtualTime runs a deliver poll past the
// tip in virtual time: it must park on the chain's wake channel and
// return an empty reply exactly Wait after it began. Run with
// GOEXPERIMENT=synctest.
func TestDeliverPollEndsAtWaitInVirtualTime(t *testing.T) {
	const wait = 100 * time.Millisecond
	inBubble(t, func() {
		o := bareOrderer()
		start := time.Now()
		raw, _, err := o.handleGetBlocks(context.Background(), "peer1",
			&GetBlocksArgs{From: 1, To: 2, Wait: wait})
		if err != nil {
			t.Errorf("poll: %v", err)
			return
		}
		if n := len(raw.(*GetBlocksReply).Blocks); n != 0 {
			t.Errorf("poll returned %d blocks from an empty chain", n)
		}
		if waited := time.Since(start); waited != wait {
			t.Errorf("poll took %v of virtual time, want %v", waited, wait)
		}
		if o.chains[DefaultChannel].wake == nil {
			t.Error("poll returned without parking on the chain's wake channel")
		}
	})
}

// TestDeliverPollWokenAtCutInVirtualTime cuts a block while a poll is
// parked: the poll must return that block at the instant of the cut.
// Run with GOEXPERIMENT=synctest.
func TestDeliverPollWokenAtCutInVirtualTime(t *testing.T) {
	const cutAfter = 30 * time.Millisecond
	inBubble(t, func() {
		o := bareOrderer()
		start := time.Now()
		time.AfterFunc(cutAfter, func() { o.emitBatch(DefaultChannel, [][]byte{[]byte("tx")}) })
		raw, _, err := o.handleGetBlocks(context.Background(), "peer1",
			&GetBlocksArgs{From: 1, To: 2, Wait: time.Second})
		if err != nil {
			t.Errorf("poll: %v", err)
			return
		}
		if blocks := raw.(*GetBlocksReply).Blocks; len(blocks) != 1 || blocks[0].Header.Number != 1 {
			t.Errorf("poll returned %d blocks, want block 1", len(blocks))
		}
		if waited := time.Since(start); waited != cutAfter {
			t.Errorf("poll returned after %v of virtual time, want the cut's %v", waited, cutAfter)
		}
	})
}
