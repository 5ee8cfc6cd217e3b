package kafka

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fabricsim/internal/simtest"
	"fabricsim/internal/transport"
)

// testCluster builds a broker cluster plus one client endpoint.
func testCluster(t *testing.T, brokers, rf int) (*Cluster, *Client, *transport.Network) {
	t.Helper()
	net := transport.NewNetwork(transport.Config{TimeScale: 0.01, Latency: time.Millisecond})
	t.Cleanup(net.Close)

	ids := make([]string, 0, brokers)
	eps := make(map[string]transport.Endpoint, brokers)
	for i := 1; i <= brokers; i++ {
		id := fmt.Sprintf("broker%d", i)
		ep, err := net.Register(id)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		eps[id] = ep
	}
	cluster, err := NewCluster(Config{
		Brokers:           ids,
		Partitions:        1,
		ReplicationFactor: rf,
		RequestTimeout:    2 * time.Second,
	}, eps)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)

	cep, err := net.Register("client")
	if err != nil {
		t.Fatal(err)
	}
	return cluster, NewClient(cep, ids, 2*time.Second), net
}

// testKind tags the records of tests that do not look at kinds.
const testKind byte = 1

func TestProduceFetch(t *testing.T) {
	_, client, _ := testCluster(t, 3, 3)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		off, err := client.Produce(ctx, 0, byte(i), []byte(fmt.Sprintf("rec%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(i) {
			t.Errorf("offset = %d, want %d", off, i)
		}
	}
	recs, err := client.Fetch(ctx, 0, 0, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("fetched %d records", len(recs))
	}
	for i, r := range recs {
		if string(r.Data) != fmt.Sprintf("rec%d", i) || r.Offset != int64(i) || r.Kind != byte(i) {
			t.Errorf("rec[%d] = %+v", i, r)
		}
	}
}

func TestFetchLongPoll(t *testing.T) {
	_, client, _ := testCluster(t, 3, 3)
	ctx := context.Background()

	done := make(chan []Record, 1)
	go func() {
		recs, err := client.Fetch(ctx, 0, 0, 2*time.Second)
		if err != nil {
			done <- nil
			return
		}
		done <- recs
	}()
	if !simtest.Until(10*time.Second, func() bool { return parkedFetches() >= 1 }) {
		t.Fatal("timed out waiting for the long poll to park")
	}
	if _, err := client.Produce(ctx, 0, testKind, []byte("late")); err != nil {
		t.Fatal(err)
	}
	select {
	case recs := <-done:
		if len(recs) != 1 || string(recs[0].Data) != "late" {
			t.Errorf("long poll got %+v", recs)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("long poll never woke")
	}
}

// locked runs f on a broker's replica of partition 0 under its lock.
func locked[T any](c *Cluster, id string, f func(ps *partitionState) T) T {
	ps := c.brokers[id].partition(0)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return f(ps)
}

// checkHighWatermark fails the test if the leader's high watermark has
// passed an offset that some ISR member has not acked.
func checkHighWatermark(t *testing.T, c *Cluster, leader string) {
	t.Helper()
	if bad := locked(c, leader, func(ps *partitionState) string {
		for _, r := range ps.replicas {
			if r != leader && ps.isr[r] && ps.ackOffset[r] < ps.highWatermark {
				return fmt.Sprintf("high watermark %d passes ISR member %s's acked offset %d", ps.highWatermark, r, ps.ackOffset[r])
			}
		}
		return ""
	}); bad != "" {
		t.Error(bad)
	}
}

// inSync reports whether the leader counts follower in the ISR.
func inSync(c *Cluster, leader, follower string) bool {
	return locked(c, leader, func(ps *partitionState) bool { return ps.isr[follower] })
}

// parkedFetches counts goroutines blocked in a long poll: in a select
// with handleFetch on their stack.
func parkedFetches() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[select") && strings.Contains(g, "(*Broker).handleFetch") {
			n++
		}
	}
	return n
}

// TestOneProduceWakesEveryLongPoll parks 16 long polls on one partition,
// then produces one record: the partition's one wake channel must wake
// them all, and each must return the record long before its MaxWait.
func TestOneProduceWakesEveryLongPoll(t *testing.T) {
	_, client, _ := testCluster(t, 3, 3)
	ctx := context.Background()
	const polls, maxWait = 16, 10 * time.Second
	type result struct {
		recs []Record
		err  error
		at   time.Time
	}
	results := make(chan result, polls)
	for i := 0; i < polls; i++ {
		go func() {
			recs, err := client.Fetch(ctx, 0, 0, maxWait)
			results <- result{recs, err, time.Now()}
		}()
	}
	if !simtest.Until(maxWait/2, func() bool { return parkedFetches() >= polls }) {
		t.Fatalf("only %d of %d long polls parked", parkedFetches(), polls)
	}
	produced := time.Now()
	if _, err := client.Produce(ctx, 0, testKind, []byte("wake")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < polls; i++ {
		r := <-results
		if r.err != nil || len(r.recs) != 1 || string(r.recs[0].Data) != "wake" {
			t.Fatalf("long poll %d returned %+v, %v; want the one record", i, r.recs, r.err)
		}
		if waited := r.at.Sub(produced); waited > maxWait/10 {
			t.Errorf("long poll %d returned %v after the produce, want well before its %v MaxWait", i, waited, maxWait)
		}
	}
}

func TestFetchEmptyTimeout(t *testing.T) {
	_, client, _ := testCluster(t, 3, 3)
	start := time.Now()
	recs, err := client.Fetch(context.Background(), 0, 0, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("got %d records from empty partition", len(recs))
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Error("long poll returned before MaxWait")
	}
}

func TestReplication(t *testing.T) {
	cluster, client, _ := testCluster(t, 3, 3)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := client.Produce(ctx, 0, testKind, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// acks=all: every broker replica must hold all records.
	for _, id := range []string{"broker1", "broker2", "broker3"} {
		b, ok := cluster.brokers[id]
		if !ok {
			t.Fatalf("missing broker %s", id)
		}
		ps := b.partition(0)
		ps.mu.Lock()
		n := len(ps.records)
		ps.mu.Unlock()
		if n != 10 {
			t.Errorf("%s holds %d records, want 10", id, n)
		}
	}
}

func TestLeaderFailover(t *testing.T) {
	t.Run("kill", func(t *testing.T) {
		cluster, client, _ := testCluster(t, 3, 3)
		ctx := context.Background()
		if _, err := client.Produce(ctx, 0, testKind, []byte("before")); err != nil {
			t.Fatal(err)
		}
		leader, ok := cluster.Leader(0)
		if !ok {
			t.Fatal("no leader")
		}
		if err := cluster.KillBroker(leader); err != nil {
			t.Fatal(err)
		}
		newLeader, ok := cluster.Leader(0)
		if !ok || newLeader == leader {
			t.Fatalf("failover did not elect a new leader: %q", newLeader)
		}
		// The new leader serves both history and new produces.
		if _, err := client.Produce(ctx, 0, testKind, []byte("after")); err != nil {
			t.Fatalf("produce after failover: %v", err)
		}
		recs, err := client.Fetch(ctx, 0, 0, 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 || string(recs[0].Data) != "before" || string(recs[1].Data) != "after" {
			t.Errorf("post-failover log = %v", recs)
		}
	})

	// An isolated follower leaves the ISR while produces keep acking,
	// catches up and rejoins after the heal, and then, as the new
	// leader, serves every acked record.
	t.Run("isolate, heal, kill", func(t *testing.T) {
		cluster, client, net := testCluster(t, 3, 3)
		// Every append costs 20 ms, so a follower's ack trails the
		// leader's append by that much, and a produce acked before its
		// ISR holds the record fails checkHighWatermark.
		cluster.cfg.ReplicaWriteDelay = 20 * time.Millisecond
		ctx := context.Background()
		acked := make(map[int64]string)
		produce := func(data string) {
			t.Helper()
			off, err := client.Produce(ctx, 0, testKind, []byte(data))
			if err != nil {
				t.Fatalf("produce %s: %v", data, err)
			}
			acked[off] = data
			leader, _ := cluster.Leader(0)
			checkHighWatermark(t, cluster, leader)
		}
		produce("before")

		net.Links().Isolate("broker2", true)
		for i := 0; i < 3; i++ {
			produce(fmt.Sprintf("isolated%d", i))
		}
		if inSync(cluster, "broker1", "broker2") {
			t.Fatal("isolated broker2 is still in the ISR")
		}

		// A severed link fails a call at once, so no sender is left; the
		// next produce starts one that brings broker2 up to the log end.
		net.Links().Isolate("broker2", false)
		produce("healed")
		logEnd := locked(cluster, "broker1", func(ps *partitionState) int { return len(ps.records) })
		if !simtest.Until(10*time.Second, func() bool {
			held := locked(cluster, "broker2", func(ps *partitionState) int { return len(ps.records) })
			return held == logEnd && inSync(cluster, "broker1", "broker2")
		}) {
			t.Fatal("timed out waiting for broker2 to hold the whole log and rejoin the ISR")
		}

		if err := cluster.KillBroker("broker1"); err != nil {
			t.Fatal(err)
		}
		if leader, ok := cluster.Leader(0); !ok || leader != "broker2" {
			t.Fatalf("leader after killing broker1 = %q, want broker2", leader)
		}
		produce("after")
		recs, err := client.Fetch(ctx, 0, 0, 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		for off, data := range acked {
			if off >= int64(len(recs)) || string(recs[off].Data) != data {
				t.Errorf("acked record %d (%s) lost in failover; new leader serves %d records", off, data, len(recs))
			}
		}
	})

	// A follower that left the ISR is behind, so killing the leader must
	// elect the follower still in it.
	t.Run("kill with a follower out of the ISR", func(t *testing.T) {
		cluster, client, net := testCluster(t, 3, 3)
		ctx := context.Background()
		net.Links().Isolate("broker2", true)
		var acked []string
		for i := 0; i < 3; i++ {
			data := fmt.Sprintf("rec%d", i)
			if _, err := client.Produce(ctx, 0, testKind, []byte(data)); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, data)
		}
		if err := cluster.KillBroker("broker1"); err != nil {
			t.Fatal(err)
		}
		if leader, ok := cluster.Leader(0); !ok || leader != "broker3" {
			t.Fatalf("leader after killing broker1 = %q, want broker3, the ISR member", leader)
		}
		if _, err := client.Produce(ctx, 0, testKind, []byte("after")); err != nil {
			t.Fatalf("produce after failover: %v", err)
		}
		acked = append(acked, "after")
		recs, err := client.Fetch(ctx, 0, 0, 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		for i, data := range acked {
			if i >= len(recs) || string(recs[i].Data) != data {
				t.Fatalf("new leader serves %v, want %v", recs, acked)
			}
		}
	})
}

// TestFailoverPicksFirstLiveReplica kills the leader of fresh RF-3
// clusters: the new leader must be the next replica in assignment
// order every time, not whichever ISR member a map walk meets first.
func TestFailoverPicksFirstLiveReplica(t *testing.T) {
	for i := 0; i < 20; i++ {
		cluster, _, _ := testCluster(t, 3, 3)
		if err := cluster.KillBroker("broker1"); err != nil {
			t.Fatal(err)
		}
		if leader, ok := cluster.Leader(0); !ok || leader != "broker2" {
			t.Fatalf("cluster %d: leader after killing broker1 = %q, want broker2", i, leader)
		}
	}
}

// TestClusterOwnsNoGoroutine builds and stops a cluster on in-memory
// endpoints: brokers only answer requests, so neither step may change
// the goroutine count.
func TestClusterOwnsNoGoroutine(t *testing.T) {
	net := transport.NewNetwork(transport.Config{TimeScale: 0.01, Latency: time.Millisecond})
	defer net.Close()
	ids := []string{"broker1", "broker2", "broker3"}
	eps := make(map[string]transport.Endpoint, len(ids))
	for _, id := range ids {
		ep, err := net.Register(id)
		if err != nil {
			t.Fatal(err)
		}
		eps[id] = ep
	}
	before := runtime.NumGoroutine()
	cluster, err := NewCluster(Config{Brokers: ids, Partitions: 4, ReplicationFactor: 3}, eps)
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("%d goroutines after NewCluster, %d before", n, before)
	}
	cluster.Stop()
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("%d goroutines after Stop, %d before NewCluster", n, before)
	}
}

// TestConcurrentProducers acks 200 concurrent produces on three brokers
// with RF 3: each takes its own offset, every broker holds every record
// in offset order, and the ISR stays whole.
func TestConcurrentProducers(t *testing.T) {
	cluster, client, _ := testCluster(t, 3, 3)
	ctx := context.Background()
	const n = 200
	offsets := make([]int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			off, err := client.Produce(ctx, 0, testKind, []byte{byte(i)})
			if err != nil {
				offsets[i] = -1
				return
			}
			offsets[i] = off
		}()
	}
	wg.Wait()
	seen := make(map[int64]bool)
	for i, off := range offsets {
		if off < 0 {
			t.Fatalf("produce %d failed", i)
		}
		if seen[off] {
			t.Fatalf("offset %d assigned twice", off)
		}
		seen[off] = true
	}
	if len(seen) != n {
		t.Errorf("distinct offsets = %d", len(seen))
	}

	leader, _ := cluster.Leader(0)
	checkHighWatermark(t, cluster, leader)
	want := locked(cluster, leader, func(ps *partitionState) []Record { return append([]Record(nil), ps.records...) })
	for _, id := range cluster.cfg.Brokers {
		if id != leader && !inSync(cluster, leader, id) {
			t.Errorf("%s left the ISR", id)
		}
		got := locked(cluster, id, func(ps *partitionState) []Record { return append([]Record(nil), ps.records...) })
		if len(got) != n {
			t.Errorf("%s holds %d records, want %d", id, len(got), n)
			continue
		}
		for i, r := range got {
			if r.Offset != int64(i) || string(r.Data) != string(want[i].Data) {
				t.Errorf("%s: record %d = %+v, leader holds %+v", id, i, r, want[i])
				break
			}
		}
	}
}

func TestReplicationFactorCapped(t *testing.T) {
	cluster, client, _ := testCluster(t, 2, 5) // RF > brokers
	if _, err := client.Produce(context.Background(), 0, testKind, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if cluster.cfg.ReplicationFactor != 2 {
		t.Errorf("RF = %d, want capped at 2", cluster.cfg.ReplicationFactor)
	}
}

// TestHandedOutRecordsSurviveTruncation hands out a leader's records in
// a fetch reply and in a replicate message, then makes that broker, now
// a follower under a new epoch, truncate its log and re-append different
// records: the records handed out earlier must not change, since fetch
// and replicate share the log rather than copy it.
func TestHandedOutRecordsSurviveTruncation(t *testing.T) {
	cluster, client, _ := testCluster(t, 2, 2)
	ctx := context.Background()
	follower := cluster.brokers["broker2"]
	var (
		mu         sync.Mutex
		replicated [][]Record
	)
	follower.ep.Handle(kindReplicate, func(ctx context.Context, from string, payload any) (any, int, error) {
		mu.Lock()
		replicated = append(replicated, payload.(*ReplicateArgs).Records)
		mu.Unlock()
		return follower.handleReplicate(ctx, from, payload)
	})
	const n, from = 5, 2
	for i := 0; i < n; i++ {
		if _, err := client.Produce(ctx, 0, testKind, []byte(fmt.Sprintf("old%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	fetched, err := client.Fetch(ctx, 0, 0, 100*time.Millisecond)
	if err != nil || len(fetched) != n {
		t.Fatalf("fetch = %d records, %v; want %d", len(fetched), err, n)
	}
	if !simtest.Until(10*time.Second, func() bool {
		return locked(cluster, "broker1", func(ps *partitionState) bool { return len(ps.sending) == 0 })
	}) {
		t.Fatal("timed out waiting for the sender to finish")
	}
	mu.Lock()
	handedOut := append([][]Record{fetched}, replicated...)
	mu.Unlock()
	snapshot := func() []string {
		var out []string
		for _, recs := range handedOut {
			for _, r := range recs {
				out = append(out, fmt.Sprintf("%d/%d/%s", r.Offset, r.Kind, r.Data))
			}
		}
		return out
	}
	before := snapshot()

	// broker2 leads epoch 2 with a different suffix from offset 2 and
	// pushes it to broker1, which truncates and appends.
	suffix := make([]Record, n-from)
	for i := range suffix {
		suffix[i] = Record{Offset: int64(from + i), Kind: testKind + 1, Data: []byte(fmt.Sprintf("new%d", from+i))}
	}
	cluster.mu.Lock()
	cluster.assignPartition(0, "broker2", []string{"broker1", "broker2"}, 2)
	cluster.mu.Unlock()
	if room := locked(cluster, "broker1", func(ps *partitionState) int { return cap(ps.records) }); room < n {
		t.Fatalf("broker1's log has capacity %d < %d: an unclipped truncation would not write over it", room, n)
	}
	args := &ReplicateArgs{Partition: 0, FromOffset: from, Records: suffix, LeaderEpoch: 2}
	if _, _, err := cluster.brokers["broker1"].handleReplicate(ctx, "broker2", args); err != nil {
		t.Fatal(err)
	}
	if got := locked(cluster, "broker1", func(ps *partitionState) string { return string(ps.records[from].Data) }); got != "new2" {
		t.Fatalf("broker1's record %d = %q after truncation, want new2", from, got)
	}
	after := snapshot()
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("handed-out record changed: %s became %s", before[i], after[i])
		}
	}
}

// TestFetchSharesTheLog pins the fetch path to sharing the log: a fetch
// returning 100 records allocates no more, in count or bytes, than one
// returning 1.
func TestFetchSharesTheLog(t *testing.T) {
	cluster, client, _ := testCluster(t, 1, 1)
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if _, err := client.Produce(ctx, 0, testKind, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	b := cluster.brokers["broker1"]
	fetch := func(maxBatch int) func() {
		args := &FetchArgs{Partition: 0, MaxBatch: maxBatch}
		return func() {
			raw, _, err := b.handleFetch(ctx, "client", args)
			if err != nil || len(raw.(*FetchReply).Records) != maxBatch {
				t.Fatalf("fetch of %d: %v", maxBatch, err)
			}
		}
	}
	one, hundred := fetch(1), fetch(100)
	if a1, a100 := testing.AllocsPerRun(100, one), testing.AllocsPerRun(100, hundred); a100 > a1 {
		t.Errorf("a fetch of 100 records makes %.1f allocations, one of 1 makes %.1f", a100, a1)
	}
	if b1, b100 := bytesPerRun(100, one), bytesPerRun(100, hundred); b100 > b1 {
		t.Errorf("a fetch of 100 records allocates %.0f B, one of 1 allocates %.0f B", b100, b1)
	}
}

// bytesPerRun is testing.AllocsPerRun in bytes: the heap bytes one call
// of f allocates, averaged over runs after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc-before) / float64(runs)
}
