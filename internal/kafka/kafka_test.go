package kafka

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fabricsim/internal/transport"
	"fabricsim/internal/zookeeper"
)

// testCluster builds a broker cluster plus one client endpoint.
func testCluster(t *testing.T, brokers, rf int) (*Cluster, *Client, *transport.Network) {
	t.Helper()
	net := transport.NewNetwork(transport.Config{TimeScale: 0.01, Latency: time.Millisecond})
	t.Cleanup(net.Close)
	zk := zookeeper.New(3, 0)

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
		SessionTimeout:    200 * time.Millisecond,
		RequestTimeout:    2 * time.Second,
	}, zk, eps)
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

func TestProduceFetch(t *testing.T) {
	_, client, _ := testCluster(t, 3, 3)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		off, err := client.Produce(ctx, 0, []byte(fmt.Sprintf("rec%d", i)))
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
		if string(r.Data) != fmt.Sprintf("rec%d", i) || r.Offset != int64(i) {
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
	time.Sleep(50 * time.Millisecond)
	if _, err := client.Produce(ctx, 0, []byte("late")); err != nil {
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
	began := time.Now()
	for parkedFetches() < polls {
		if time.Since(began) > maxWait/2 {
			t.Fatalf("only %d of %d long polls parked", parkedFetches(), polls)
		}
		runtime.Gosched()
	}
	produced := time.Now()
	if _, err := client.Produce(ctx, 0, []byte("wake")); err != nil {
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
		if _, err := client.Produce(ctx, 0, []byte{byte(i)}); err != nil {
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
	cluster, client, _ := testCluster(t, 3, 3)
	ctx := context.Background()
	if _, err := client.Produce(ctx, 0, []byte("before")); err != nil {
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
	if _, err := client.Produce(ctx, 0, []byte("after")); err != nil {
		t.Fatalf("produce after failover: %v", err)
	}
	recs, err := client.Fetch(ctx, 0, 0, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || string(recs[0].Data) != "before" || string(recs[1].Data) != "after" {
		t.Errorf("post-failover log = %v", recs)
	}
}

func TestConcurrentProducers(t *testing.T) {
	_, client, _ := testCluster(t, 3, 3)
	ctx := context.Background()
	const n = 50
	offsets := make([]int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			off, err := client.Produce(ctx, 0, []byte{byte(i)})
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
}

func TestReplicationFactorCapped(t *testing.T) {
	cluster, client, _ := testCluster(t, 2, 5) // RF > brokers
	if _, err := client.Produce(context.Background(), 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if cluster.cfg.ReplicationFactor != 2 {
		t.Errorf("RF = %d, want capped at 2", cluster.cfg.ReplicationFactor)
	}
}
