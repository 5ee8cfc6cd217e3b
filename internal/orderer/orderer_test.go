package orderer

import (
	"context"
	"sync"
	"testing"
	"time"

	"fabricsim/internal/costmodel"
	"fabricsim/internal/kafka"
	"fabricsim/internal/orderer/blockcutter"
	"fabricsim/internal/simcpu"
	"fabricsim/internal/simtest"
	"fabricsim/internal/transport"
	"fabricsim/internal/types"
)

// testHarness wires OSNs and a fake client endpoint that doubles as the
// deliver client.
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
		if !simtest.Until(5*time.Second, func() bool {
			_, ok := node.Leader()
			return ok
		}) {
			h.t.Fatal("single-node raft never elected itself")
		}
	}
	return c
}

// follow long-polls osn for default-channel blocks from block 1, as a
// peer's deliver loop does, and collects them. It stops at its first
// failed poll, or at cleanup.
func (h *testHarness) follow(osn string) func() []*types.Block {
	h.t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	var got []*types.Block
	done := make(chan struct{})
	go func() {
		defer close(done)
		for next := uint64(1); ; {
			raw, err := h.client.Call(ctx, osn, KindGetBlocks,
				&GetBlocksArgs{From: next, To: next + maxGetBlocksBatch, Wait: time.Second}, 32)
			if err != nil {
				return
			}
			blocks := raw.(*GetBlocksReply).Blocks
			mu.Lock()
			got = append(got, blocks...)
			mu.Unlock()
			next += uint64(len(blocks))
		}
	}()
	h.t.Cleanup(func() {
		cancel()
		<-done
	})
	return func() []*types.Block {
		mu.Lock()
		defer mu.Unlock()
		return append([]*types.Block(nil), got...)
	}
}

// pollResult is one KindGetBlocks call's outcome.
type pollResult struct {
	blocks []*types.Block
	err    error
}

// park sends one long poll for channel blocks from `from` on, waiting
// up to wait, and returns once the OSN has parked it: the poll's result
// channel, and the chain's wake channel the poll waits on.
func (h *testHarness) park(o *Orderer, channel string, from uint64, wait time.Duration) (<-chan pollResult, chan struct{}) {
	h.t.Helper()
	res := make(chan pollResult, 1)
	go func() {
		raw, err := h.client.Call(context.Background(), o.ID(), KindGetBlocks,
			&GetBlocksArgs{Channel: channel, From: from, To: from + 1, Wait: wait}, 32)
		var r pollResult
		if r.err = err; err == nil {
			r.blocks = raw.(*GetBlocksReply).Blocks
		}
		res <- r
	}()
	return res, h.parked(o, channel)
}

// parked waits until a poll is parked on the channel's chain and returns
// the wake channel it waits on.
func (h *testHarness) parked(o *Orderer, channel string) chan struct{} {
	h.t.Helper()
	c, err := o.chainFor(channel)
	if err != nil {
		h.t.Fatal(err)
	}
	var wake chan struct{}
	if !simtest.Until(2*time.Second, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		wake = c.wake
		return wake != nil
	}) {
		h.t.Fatal("poll never parked on the chain")
	}
	return wake
}

// result waits for a parked poll's outcome, failing the test if it takes
// longer than d.
func (h *testHarness) result(res <-chan pollResult, d time.Duration) pollResult {
	h.t.Helper()
	select {
	case r := <-res:
		return r
	case <-time.After(d):
		h.t.Fatalf("parked poll still waiting after %v", d)
		return pollResult{}
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
			blocks := h.follow("osn1")
			h.broadcastN(o, 6)
			if !simtest.Until(2*time.Second, func() bool { return len(blocks()) >= 2 }) {
				t.Fatal("two size cuts never arrived")
			}
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

// TestSoloTimeoutCut pins the BatchTimeout cut on every consenter: the
// batch-timer loop of Solo and Raft, and Kafka's chain loop, whose timer
// posts the time-to-cut.
func TestSoloTimeoutCut(t *testing.T) {
	for _, kind := range []consenterKind{soloKind, kafkaKind, raftKind} {
		t.Run(kind.name, func(t *testing.T) {
			h := newHarness(t)
			o := h.newOrderer("osn1", 100, 50*time.Millisecond)
			h.start(kind, o)
			blocks := h.follow("osn1")
			start := time.Now()
			if err := h.broadcast("osn1", []byte("timeout-tx")); err != nil {
				t.Fatal(err)
			}
			if !simtest.Until(2*time.Second, func() bool { return len(blocks()) >= 1 }) {
				t.Fatal("timeout cut never arrived")
			}
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
	if !simtest.Until(2*time.Second, func() bool {
		b = h.fetchBlock(3)
		return b != nil
	}) {
		t.Fatal("block 3 never became fetchable")
	}
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
	if !simtest.Until(2*time.Second, func() bool { return h.fetchBlock(4) != nil }) {
		t.Fatal("block 4 never became fetchable")
	}

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

// newTwoChannelOrderer starts a Solo OSN that orders chA and chB, one
// transaction per block.
func (h *testHarness) newTwoChannelOrderer() *Orderer {
	h.t.Helper()
	ep, err := h.net.Register("osn1")
	if err != nil {
		h.t.Fatal(err)
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
	h.start(soloKind, o)
	return o
}

// TestGetBlocksWaitReturnsBlockAtCut checks the deliver long poll: a
// request past the tip parks, and the cut of the block it asks for
// answers it with that block, long before its wait ends.
func TestGetBlocksWaitReturnsBlockAtCut(t *testing.T) {
	h := newHarness(t)
	o := h.newOrderer("osn1", 1, time.Minute)
	h.start(soloKind, o)
	res, _ := h.park(o, DefaultChannel, 1, time.Minute)
	h.broadcastN(o, 1)
	r := h.result(res, 5*time.Second)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.blocks) != 1 || r.blocks[0].Header.Number != 1 {
		t.Fatalf("parked poll returned %d blocks, want block 1", len(r.blocks))
	}
}

// TestGetBlocksWaitChannelScoped checks that a poll parks on its own
// channel's chain: a cut on chA leaves a parked chB poll waiting on the
// same, unclosed wake channel, and the next chB cut answers it.
func TestGetBlocksWaitChannelScoped(t *testing.T) {
	h := newHarness(t)
	o := h.newTwoChannelOrderer()
	res, wake := h.park(o, "chB", 1, time.Minute)

	if _, err := h.client.Call(context.Background(), "osn1", KindBroadcast,
		&BroadcastEnvelope{Channel: "chA", Env: []byte("a")}, 1); err != nil {
		t.Fatal(err)
	}
	if !simtest.Until(2*time.Second, func() bool { return o.ChainHeight("chA") == 1 }) {
		t.Fatal("chA block never cut")
	}
	select {
	case <-wake:
		t.Fatal("a chA cut woke the chB poll")
	case r := <-res:
		t.Fatalf("chB poll returned %d blocks after a chA cut", len(r.blocks))
	default:
	}

	if _, err := h.client.Call(context.Background(), "osn1", KindBroadcast,
		&BroadcastEnvelope{Channel: "chB", Env: []byte("b")}, 1); err != nil {
		t.Fatal(err)
	}
	r := h.result(res, 5*time.Second)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.blocks) != 1 || r.blocks[0].Metadata.ChannelID != "chB" {
		t.Fatalf("chB poll returned %d blocks, want one chB block", len(r.blocks))
	}
}

// TestStopAnswersParkedPoll checks that Stop ends a parked poll with
// ErrStopped instead of leaving it to wait out its bound.
func TestStopAnswersParkedPoll(t *testing.T) {
	h := newHarness(t)
	o := h.newOrderer("osn1", 1, time.Minute)
	h.start(soloKind, o)
	res, _ := h.park(o, DefaultChannel, 1, time.Minute)
	o.Stop()
	// Errors cross the transport as text.
	if r := h.result(res, 5*time.Second); r.err == nil || r.err.Error() != ErrStopped.Error() {
		t.Fatalf("parked poll after stop: %v, want %v", r.err, ErrStopped)
	}
}

// TestDownClientCostsAtMostOneBlock checks what a crashed deliver client
// costs the OSN: the one poll it left parked, answered by the first cut.
// It sends no further poll, so the other cuts cost no egress. Blocks 2-5
// are cut only once that answer is counted: a poll woken late by a busy
// host would otherwise carry every block cut meanwhile in its one reply.
func TestDownClientCostsAtMostOneBlock(t *testing.T) {
	h := newHarness(t)
	o := h.newOrderer("osn1", 1, time.Minute)
	h.start(soloKind, o)
	h.follow("osn1")
	h.parked(o, DefaultChannel)
	h.net.Links().Isolate("client", true)
	defer h.net.Links().Isolate("client", false)

	// Submit from a second endpoint (the downed client cannot send).
	other, err := h.net.Register("client2")
	if err != nil {
		t.Fatal(err)
	}
	broadcast := func(i int) {
		if _, err := other.Call(context.Background(), "osn1", KindBroadcast,
			&BroadcastEnvelope{Env: []byte{byte(i)}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	broadcast(0)
	if !simtest.Until(2*time.Second, func() bool {
		blocks, _ := o.EgressStats()
		return blocks == 1
	}) {
		t.Fatal("the parked poll never answered block 1")
	}
	for i := 1; i < 5; i++ {
		broadcast(i)
	}
	if !simtest.Until(2*time.Second, func() bool { return o.ChainHeight(DefaultChannel) == 5 }) {
		t.Fatal("5 blocks never cut")
	}
	if blocks, _ := o.EgressStats(); blocks > 1 {
		t.Errorf("egress = %d blocks to a down client while 5 were cut, want at most 1", blocks)
	}
}

// TestEgressStatsCountDeliveries checks the egress accounting on deliver
// polls and ranged catch-up fetches alike.
func TestEgressStatsCountDeliveries(t *testing.T) {
	h := newHarness(t)
	o := h.newOrderer("osn1", 1, time.Minute)
	NewSolo(o)
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	defer o.Stop()
	h.follow("osn1")
	h.broadcastN(o, 3)
	if !simtest.Until(2*time.Second, func() bool {
		blocks, _ := o.EgressStats()
		return blocks >= 3
	}) {
		t.Fatal("polled blocks not counted")
	}
	if _, err := h.client.Call(context.Background(), "osn1", KindGetBlocks,
		&GetBlocksArgs{From: 1, To: 4}, 24); err != nil {
		t.Fatal(err)
	}
	blocks, bytes := o.EgressStats()
	if blocks != 6 {
		t.Errorf("egress blocks = %d, want 6 (3 polled + 3 fetched)", blocks)
	}
	if bytes == 0 {
		t.Error("egress bytes not counted")
	}
}
