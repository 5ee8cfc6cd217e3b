//go:build goexperiment.synctest

package orderer

import (
	"context"
	"testing"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/kafka"
	"fabricsim/internal/orderer/blockcutter"
	"fabricsim/internal/simcpu"
	"fabricsim/internal/simtest"
	"fabricsim/internal/transport"
)

// bareOrderer is an OSN with one chain and no endpoint or consenter:
// enough to serve KindGetBlocks and cut blocks by hand.
func bareOrderer() *Orderer {
	return &Orderer{
		chains:      map[string]*chain{DefaultChannel: newChain(DefaultChannel)},
		channelList: []string{DefaultChannel},
	}
}

// TestDeliverPollEndsAtWaitInVirtualTime runs a deliver poll past the
// tip in virtual time: it must park on the chain's wake channel and
// return an empty reply exactly Wait after it began. Run with
// GOEXPERIMENT=synctest.
func TestDeliverPollEndsAtWaitInVirtualTime(t *testing.T) {
	const wait = 100 * time.Millisecond
	simtest.Run(t, func() {
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
	simtest.Run(t, func() {
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

// TestKafkaTimeoutCutInVirtualTime consumes one envelope on a one-broker
// Kafka OSN and lets its batch timer run out. The chain loop must post
// the time-to-cut at the timer's expiry, not on some later tick, so the
// block is cut BatchTimeout after the envelope was consumed plus three
// link round trips: the fetch long poll that ends at the expiry
// answering, the TTC's produce and the fetch that reads it. Run with
// GOEXPERIMENT=synctest.
func TestKafkaTimeoutCutInVirtualTime(t *testing.T) {
	const (
		timeout = 100 * time.Millisecond
		latency = time.Millisecond // one way, on every link
		rtt     = 2 * latency
		// offset puts the envelope off any period of the loops' start.
		offset = 13 * time.Millisecond
	)
	simtest.Run(t, func() {
		net := transport.NewNetwork(transport.Config{Latency: latency, TimeScale: 1})
		defer net.Close()
		osnEP, errO := net.Register("osn1")
		brokerEP, errB := net.Register("broker1")
		if errO != nil || errB != nil {
			t.Errorf("register: %v, %v", errO, errB)
			return
		}
		brokers := []string{"broker1"}
		cluster, err := kafka.NewCluster(kafka.Config{Brokers: brokers, Partitions: 1, ReplicationFactor: 1},
			map[string]transport.Endpoint{"broker1": brokerEP})
		if err != nil {
			t.Errorf("cluster: %v", err)
			return
		}
		defer cluster.Stop()
		model := costmodel.Default(1.0)
		o := New(Config{
			ID:       "osn1",
			Endpoint: osnEP,
			Cutter:   blockcutter.Config{BatchSize: 100, BatchTimeout: timeout},
			Model:    model,
			CPU:      simcpu.New(model.OrdererCores, 1.0),
		})
		k := NewKafkaConsenter(o, kafka.NewClient(osnEP, brokers, time.Second))
		if err := o.Start(); err != nil {
			t.Errorf("start: %v", err)
			return
		}
		defer o.Stop()
		time.Sleep(offset)
		// The broker acks the produce and answers the OSN's parked fetch
		// at one instant, so Submit returns as the loop consumes.
		if err := k.Submit(context.Background(), DefaultChannel, []byte("timeout-tx")); err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		consumed := time.Now()
		raw, _, err := o.handleGetBlocks(context.Background(), "peer1",
			&GetBlocksArgs{From: 1, To: 2, Wait: 2 * timeout})
		if err != nil {
			t.Errorf("poll: %v", err)
			return
		}
		blocks := raw.(*GetBlocksReply).Blocks
		if len(blocks) != 1 || len(blocks[0].Data) != 1 {
			t.Errorf("poll returned %d blocks, want block 1 with the envelope", len(blocks))
			return
		}
		cut := time.Unix(0, blocks[0].Metadata.OrderedTime)
		if got, want := cut.Sub(consumed), timeout+3*rtt; got != want {
			t.Errorf("block cut %v after the envelope was consumed, want %v", got, want)
		}
	})
}
