package orderer

import (
	"context"
	"sync"
	"testing"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/kafka"
	"fabricsim/internal/metrics"
	"fabricsim/internal/orderer/blockcutter"
	"fabricsim/internal/simcpu"
	"fabricsim/internal/transport"
	"fabricsim/internal/types"
)

// testHarness wires OSNs and a fake client endpoint that doubles as the
// deliver subscriber.
type testHarness struct {
	t      *testing.T
	net    *transport.Network
	client transport.Endpoint
}

func newHarness(t *testing.T) *testHarness {
	t.Helper()
	h := &testHarness{
		t:   t,
		net: transport.NewNetwork(transport.Config{TimeScale: 1.0}),
	}
	t.Cleanup(h.net.Close)
	cep, err := h.net.Register("client")
	if err != nil {
		t.Fatal(err)
	}
	h.client = cep
	return h
}

func (h *testHarness) newOrderer(id string, batchSize int, timeout time.Duration) *Orderer {
	ep, err := h.net.Register(id)
	if err != nil {
		h.t.Fatal(err)
	}
	model := costmodel.Default(1.0)
	return New(Config{
		ID:       id,
		Endpoint: ep,
		Cutter:   blockcutter.Config{BatchSize: batchSize, BatchTimeout: timeout},
		Model:    model,
		CPU:      simcpu.New(model.OrdererCores, 1.0),
	})
}

// consenterKind attaches one consensus implementation to a fresh OSN.
type consenterKind struct {
	name   string
	attach func(h *testHarness, o *Orderer) Consenter
}

var (
	soloKind  = consenterKind{"solo", func(_ *testHarness, o *Orderer) Consenter { return NewSolo(o) }}
	kafkaKind = consenterKind{"kafka", (*testHarness).attachKafka}
	raftKind  = consenterKind{"raft", (*testHarness).attachRaft}
)

// attachKafka attaches a Kafka consenter over a one-broker cluster with
// one partition per channel.
func (h *testHarness) attachKafka(o *Orderer) Consenter {
	h.t.Helper()
	ep, err := h.net.Register("broker1")
	if err != nil {
		h.t.Fatal(err)
	}
	brokers := []string{"broker1"}
	cluster, err := kafka.NewCluster(kafka.Config{
		Brokers:           brokers,
		Partitions:        len(o.Channels()),
		ReplicationFactor: 1,
		RequestTimeout:    2 * time.Second,
	}, map[string]transport.Endpoint{"broker1": ep})
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(cluster.Stop)
	return NewKafkaConsenter(o, kafka.NewClient(o.cfg.Endpoint, brokers, 2*time.Second))
}

// attachRaft attaches a single-node Raft consenter: the OSN elects
// itself and commits each proposal on its own append.
func (h *testHarness) attachRaft(o *Orderer) Consenter {
	h.t.Helper()
	rc, err := NewRaftConsenter(o, RaftConfig{
		Peers:             []string{o.ID()},
		ElectionTimeout:   50 * time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	return rc
}

// start attaches kind to o, starts the OSN and stops it at cleanup. A
// Raft consenter returns once its node leads, so Submit has a leader.
func (h *testHarness) start(kind consenterKind, o *Orderer) Consenter {
	h.t.Helper()
	c := kind.attach(h, o)
	if err := o.Start(); err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(o.Stop)
	if rc, ok := c.(*RaftConsenter); ok {
		node, _ := rc.NodeFor(o.defaultChannel())
		waitFor(h.t, 5*time.Second, func() bool {
			_, ok := node.Leader()
			return ok
		}, "single-node raft never elected itself")
	}
	return c
}

// subscribe registers the client endpoint for every channel's pushes
// and collects the pushed blocks.
func (h *testHarness) subscribe(osn string) func() []*types.Block {
	h.t.Helper()
	var mu sync.Mutex
	var got []*types.Block
	h.client.Handle(KindDeliverBlock, func(_ context.Context, _ string, payload any) (any, int, error) {
		mu.Lock()
		got = append(got, payload.(*types.Block))
		mu.Unlock()
		return nil, 0, nil
	})
	if _, err := h.client.Call(context.Background(), osn, KindSubscribe, &SubscribeArgs{}, 8); err != nil {
		h.t.Fatal(err)
	}
	return func() []*types.Block {
		mu.Lock()
		defer mu.Unlock()
		return append([]*types.Block(nil), got...)
	}
}

// broadcast submits one envelope on the default channel.
func (h *testHarness) broadcast(osn string, env []byte) error {
	_, err := h.client.Call(context.Background(), osn, KindBroadcast,
		&BroadcastEnvelope{Env: env}, len(env))
	return err
}

// TestSoloSizeCut pins the BatchSize cut of the batch-timer cut loop on
// both consenters that run it: Solo emits each batch, Raft proposes it.
func TestSoloSizeCut(t *testing.T) {
	for _, kind := range []consenterKind{soloKind, raftKind} {
		t.Run(kind.name, func(t *testing.T) {
			h := newHarness(t)
			o := h.newOrderer("osn1", 3, time.Minute)
			h.start(kind, o)
			blocks := h.subscribe("osn1")
			h.broadcastN(o, 6)
			waitFor(t, 2*time.Second, func() bool { return len(blocks()) >= 2 }, "two size cuts never arrived")
			got := blocks()
			if len(got) != 2 {
				t.Fatalf("blocks = %d, want 2", len(got))
			}
			if got[0].Header.Number != 1 || got[1].Header.Number != 2 {
				t.Errorf("numbers = %d, %d", got[0].Header.Number, got[1].Header.Number)
			}
			if len(got[0].Data) != 3 || len(got[1].Data) != 3 {
				t.Errorf("batch sizes = %d, %d", len(got[0].Data), len(got[1].Data))
			}
			if string(got[0].Header.PrevHash) == string(got[1].Header.PrevHash) {
				t.Error("blocks share prev hash")
			}
		})
	}
}

// TestSoloTimeoutCut pins the BatchTimeout cut of the same loop on Solo
// and Raft.
func TestSoloTimeoutCut(t *testing.T) {
	for _, kind := range []consenterKind{soloKind, raftKind} {
		t.Run(kind.name, func(t *testing.T) {
			h := newHarness(t)
			o := h.newOrderer("osn1", 100, 50*time.Millisecond)
			h.start(kind, o)
			blocks := h.subscribe("osn1")
			start := time.Now()
			if err := h.broadcast("osn1", []byte("timeout-tx")); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 2*time.Second, func() bool { return len(blocks()) >= 1 }, "timeout cut never arrived")
			elapsed := time.Since(start)
			if got := blocks(); len(got) != 1 || len(got[0].Data) != 1 {
				t.Fatalf("blocks = %+v", got)
			}
			if elapsed < 40*time.Millisecond {
				t.Errorf("timeout cut after %s, want ~50ms", elapsed)
			}
		})
	}
}

// TestConsenterLifecycle pins the start/stop contract every consenter
// shares: Stop before Start returns and leaves Start inert, Stop is
// idempotent and safe from concurrent goroutines, and a stopped OSN
// refuses broadcasts with ErrStopped.
func TestConsenterLifecycle(t *testing.T) {
	for _, kind := range []consenterKind{soloKind, kafkaKind, raftKind} {
		t.Run(kind.name, func(t *testing.T) {
			t.Run("StopBeforeStart", func(t *testing.T) {
				h := newHarness(t)
				c := kind.attach(h, h.newOrderer("osn1", 10, 50*time.Millisecond))
				c.Stop()
				if err := c.Start(); err != nil {
					t.Fatal(err)
				}
				c.Stop()
			})
			t.Run("DoubleStop", func(t *testing.T) {
				h := newHarness(t)
				c := h.start(kind, h.newOrderer("osn1", 10, 50*time.Millisecond))
				c.Stop()
				c.Stop()
			})
			t.Run("ConcurrentStops", func(t *testing.T) {
				h := newHarness(t)
				c := h.start(kind, h.newOrderer("osn1", 10, 50*time.Millisecond))
				var wg sync.WaitGroup
				for i := 0; i < 8; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						c.Stop()
					}()
				}
				wg.Wait()
			})
			t.Run("BroadcastAfterStop", func(t *testing.T) {
				h := newHarness(t)
				o := h.newOrderer("osn1", 10, 50*time.Millisecond)
				h.start(kind, o)
				o.Stop()
				// Errors cross the transport as text.
				if err := h.broadcast("osn1", []byte("late")); err == nil || err.Error() != ErrStopped.Error() {
					t.Fatalf("broadcast after stop: %v, want %v", err, ErrStopped)
				}
			})
		})
	}
}

func TestGetBlockCatchUp(t *testing.T) {
	h := newHarness(t)
	o := h.newOrderer("osn1", 1, time.Minute)
	NewSolo(o)
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	h.broadcastN(o, 3)
	// Allow the cut loop to emit all three single-tx blocks.
	var b *types.Block
	waitFor(t, 2*time.Second, func() bool {
		b = h.fetchBlock(3)
		return b != nil
	}, "block 3 never became fetchable")
	if b.Header.Number != 3 {
		t.Errorf("block number = %d", b.Header.Number)
	}
	if h.fetchBlock(99) != nil {
		t.Error("future block served")
	}
	if blocks, bytes := o.EgressStats(); blocks == 0 || bytes == 0 {
		t.Errorf("egress = %d blocks, %d bytes; the served block was not counted", blocks, bytes)
	}
}

// fetchBlock fetches one block from osn1 by number through the ranged
// catch-up kind; nil means the block is not yet cut.
func (h *testHarness) fetchBlock(num uint64) *types.Block {
	h.t.Helper()
	raw, err := h.client.Call(context.Background(), "osn1", KindGetBlocks,
		&GetBlocksArgs{From: num, To: num + 1}, 24)
	if err != nil {
		h.t.Fatal(err)
	}
	if blocks := raw.(*GetBlocksReply).Blocks; len(blocks) == 1 {
		return blocks[0]
	}
	return nil
}

func TestBatchEncodeDecode(t *testing.T) {
	batch := [][]byte{[]byte("a"), []byte("bc"), nil}
	got, err := decodeBatch(encodeBatch(batch))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || string(got[0]) != "a" || string(got[1]) != "bc" || got[2] != nil {
		t.Errorf("decoded %v", got)
	}
	if _, err := decodeBatch([]byte("garbage-that-overruns")); err == nil {
		t.Error("garbage decoded")
	}
	// A count the entry cannot hold must be an error: it used to size the
	// slice (2^63 panics make, 2^28-1 allocates 6 GiB of headers).
	for _, data := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		{0xff, 0xff, 0xff, 0x7f, 1, 'a'},
	} {
		if _, err := decodeBatch(data); err == nil {
			t.Errorf("batch %x decoded", data)
		}
	}
}

// waitFor polls cond until it returns true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

// broadcastN submits n one-byte envelopes on the default channel.
func (h *testHarness) broadcastN(o *Orderer, n int) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		if err := h.broadcast(o.ID(), []byte{byte(i)}); err != nil {
			h.t.Fatal(err)
		}
	}
}

// TestGetBlocksRanged checks the batched catch-up fetch: one round trip
// returns the whole [From, To) range, clamped at the chain tip.
func TestGetBlocksRanged(t *testing.T) {
	h := newHarness(t)
	o := h.newOrderer("osn1", 1, time.Minute)
	NewSolo(o)
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	h.broadcastN(o, 4)
	waitFor(t, 2*time.Second, func() bool { return h.fetchBlock(4) != nil },
		"block 4 never became fetchable")

	raw, err := h.client.Call(context.Background(), "osn1", KindGetBlocks,
		&GetBlocksArgs{From: 1, To: 99}, 24)
	if err != nil {
		t.Fatal(err)
	}
	reply := raw.(*GetBlocksReply)
	if len(reply.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4 (range clamped at tip)", len(reply.Blocks))
	}
	for i, b := range reply.Blocks {
		if b.Header.Number != uint64(i+1) {
			t.Errorf("block[%d].Number = %d, want %d", i, b.Header.Number, i+1)
		}
	}
	// An empty range replies with no blocks rather than an error.
	raw, err = h.client.Call(context.Background(), "osn1", KindGetBlocks,
		&GetBlocksArgs{From: 50, To: 60}, 24)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(raw.(*GetBlocksReply).Blocks); n != 0 {
		t.Errorf("future range returned %d blocks", n)
	}
}

// TestSubscribeChannelScoped checks that a *SubscribeArgs subscription
// receives pushes only for its channels, and that the reply reports the
// subscribed channels' tips.
func TestSubscribeChannelScoped(t *testing.T) {
	h := newHarness(t)
	ep, err := h.net.Register("osn1")
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.Default(1.0)
	o := New(Config{
		ID:       "osn1",
		Endpoint: ep,
		Cutter:   blockcutter.Config{BatchSize: 1, BatchTimeout: time.Minute},
		Model:    model,
		CPU:      simcpu.New(model.OrdererCores, 1.0),
		Channels: []string{"chA", "chB"},
	})
	NewSolo(o)
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	defer o.Stop()

	var mu sync.Mutex
	var got []*types.Block
	h.client.Handle(KindDeliverBlock, func(_ context.Context, _ string, payload any) (any, int, error) {
		mu.Lock()
		got = append(got, payload.(*types.Block))
		mu.Unlock()
		return nil, 0, nil
	})
	raw, err := h.client.Call(context.Background(), "osn1", KindSubscribe,
		&SubscribeArgs{Channels: []string{"chB"}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	reply := raw.(*SubscribeReply)
	if tip, ok := reply.Tips["chB"]; !ok || tip != 0 {
		t.Errorf("tips = %v, want chB:0", reply.Tips)
	}
	if _, ok := reply.Tips["chA"]; ok {
		t.Errorf("unsubscribed channel tip reported: %v", reply.Tips)
	}

	for _, ch := range []string{"chA", "chB"} {
		if _, err := h.client.Call(context.Background(), "osn1", KindBroadcast,
			&BroadcastEnvelope{Channel: ch, Env: []byte(ch)}, 4); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 1
	}, "no block pushed to chB subscriber")
	time.Sleep(20 * time.Millisecond) // give a stray chA push time to arrive
	mu.Lock()
	defer mu.Unlock()
	for _, b := range got {
		if b.Metadata.ChannelID != "chB" {
			t.Errorf("received block for channel %q, want only chB", b.Metadata.ChannelID)
		}
	}
}

// TestUnsubscribeStopsPushes checks the leader-handoff path: after
// KindUnsubscribe the peer receives no further blocks.
func TestUnsubscribeStopsPushes(t *testing.T) {
	h := newHarness(t)
	o := h.newOrderer("osn1", 1, time.Minute)
	NewSolo(o)
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	defer o.Stop()

	blocks := h.subscribe("osn1")
	h.broadcastN(o, 1)
	waitFor(t, 2*time.Second, func() bool { return len(blocks()) == 1 }, "subscribed block never pushed")

	if _, err := h.client.Call(context.Background(), "osn1", KindUnsubscribe, &SubscribeArgs{}, 8); err != nil {
		t.Fatal(err)
	}
	if subs := o.Subscribers(); len(subs) != 0 {
		t.Fatalf("subscribers after unsubscribe: %v", subs)
	}
	h.broadcastN(o, 2)
	waitFor(t, 2*time.Second, func() bool { return h.fetchBlock(3) != nil },
		"block 3 never cut")
	if got := len(blocks()); got != 1 {
		t.Errorf("received %d pushes after unsubscribe, want 1 total", got)
	}
}

// TestDeadSubscriberPruned is the regression for the fire-and-forget
// deliver leak: a crashed subscriber is evicted after maxSendFailures
// consecutive failed pushes and stops consuming orderer egress.
func TestDeadSubscriberPruned(t *testing.T) {
	h := newHarness(t)
	ep, err := h.net.Register("osn1")
	if err != nil {
		t.Fatal(err)
	}
	model := costmodel.Default(1.0)
	col := metrics.NewCollector()
	o := New(Config{
		ID:        "osn1",
		Endpoint:  ep,
		Cutter:    blockcutter.Config{BatchSize: 1, BatchTimeout: time.Minute},
		Model:     model,
		CPU:       simcpu.New(model.OrdererCores, 1.0),
		Collector: col,
	})
	NewSolo(o)
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	h.subscribe("osn1")

	// Crash the subscriber: pushes now fail synchronously.
	h.net.SetNodeDown("client", true)
	defer h.net.SetNodeDown("client", false)

	// Submit from a second endpoint (the downed client cannot send).
	other, err := h.net.Register("client2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := other.Call(context.Background(), "osn1", KindBroadcast,
			&BroadcastEnvelope{Env: []byte{byte(i)}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	col.Submitted("probe", time.Now()) // Summarize reduces nothing without a transaction record
	waitFor(t, 2*time.Second, func() bool {
		return col.Summarize(metrics.SummaryOptions{}).SubscriberEvictions == 1
	}, "dead subscriber never evicted once")
	if subs := o.Subscribers(); len(subs) != 0 {
		t.Errorf("subscribers after eviction: %v", subs)
	}
	// Exactly maxSendFailures pushes were charged against the dead
	// subscriber; eviction stops the egress bleed.
	blocks, _ := o.EgressStats()
	if blocks != 0 {
		t.Errorf("egress blocks = %d, want 0 (all pushes failed)", blocks)
	}
}

// TestEgressStatsCountDeliveries checks the egress accounting on the
// push and ranged-fetch paths.
func TestEgressStatsCountDeliveries(t *testing.T) {
	h := newHarness(t)
	o := h.newOrderer("osn1", 1, time.Minute)
	NewSolo(o)
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	h.subscribe("osn1")
	h.broadcastN(o, 3)
	waitFor(t, 2*time.Second, func() bool {
		blocks, _ := o.EgressStats()
		return blocks >= 3
	}, "pushes not counted")
	if _, err := h.client.Call(context.Background(), "osn1", KindGetBlocks,
		&GetBlocksArgs{From: 1, To: 4}, 24); err != nil {
		t.Fatal(err)
	}
	blocks, bytes := o.EgressStats()
	if blocks != 6 {
		t.Errorf("egress blocks = %d, want 6 (3 pushes + 3 fetched)", blocks)
	}
	if bytes == 0 {
		t.Error("egress bytes not counted")
	}
}
