package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	id := tr.Mint("tx1")
	if id != "" {
		t.Fatalf("nil tracer minted %q", id)
	}
	tr.Record("x", SpanGatewayPropose, "client1", time.Now(), time.Now())
	tr.Bind("tx2", "x")
	tr.BlockOrigin("ch1", 3, "gossip", 2)
	if _, _, ok := tr.OriginOf("ch1", 3); ok {
		t.Fatal("nil tracer returned an origin")
	}
	if got := tr.Spans("x"); got != nil {
		t.Fatalf("nil tracer returned spans %v", got)
	}
	if _, ok := tr.Lookup("tx1"); ok {
		t.Fatal("nil tracer resolved a lookup")
	}
	if _, ok := tr.CriticalPath("x"); ok {
		t.Fatal("nil tracer produced a critical path")
	}
	if tr.Len() != 0 || tr.TraceIDs() != nil {
		t.Fatal("nil tracer retains traces")
	}
}

func TestMintBindLookup(t *testing.T) {
	tr := New(0)
	id := tr.Mint("tx-attempt1")
	if id == "" {
		t.Fatal("empty trace id")
	}
	tr.Bind("tx-attempt2", id)
	for _, txID := range []string{"tx-attempt1", "tx-attempt2"} {
		got, ok := tr.Lookup(txID)
		if !ok || got != id {
			t.Fatalf("Lookup(%s) = %q, %v; want %q", txID, got, ok, id)
		}
	}
}

func TestRecordAndSpansSorted(t *testing.T) {
	tr := New(0)
	id := tr.Mint("tx1")
	base := time.Unix(1000, 0)
	tr.Record(id, SpanGatewayEndorse, "client1", base.Add(10*time.Millisecond), base.Add(30*time.Millisecond))
	tr.Record(id, SpanGatewayPropose, "client1", base, base.Add(10*time.Millisecond), "attempt", "1")
	got := tr.Spans(id)
	if len(got) != 2 {
		t.Fatalf("got %d spans, want 2", len(got))
	}
	if got[0].Name != SpanGatewayPropose || got[1].Name != SpanGatewayEndorse {
		t.Fatalf("spans not sorted by start: %v %v", got[0].Name, got[1].Name)
	}
	if got[0].Attrs["attempt"] != "1" {
		t.Fatalf("attrs lost: %v", got[0].Attrs)
	}
	// The returned slice is a copy.
	got[0].Name = "mutated"
	if tr.Spans(id)[0].Name != SpanGatewayPropose {
		t.Fatal("Spans returned shared storage")
	}
}

func TestEvictionBound(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		id := tr.Mint(fmt.Sprintf("tx%d", i))
		tr.Record(id, SpanGatewayPropose, "c", time.Unix(int64(i), 0), time.Unix(int64(i), 1))
	}
	if tr.Len() != 4 {
		t.Fatalf("retained %d traces, want 4", tr.Len())
	}
	ids := tr.TraceIDs()
	if ids[0] != "tx6" || ids[len(ids)-1] != "tx9" {
		t.Fatalf("wrong survivors: %v", ids)
	}
	if got := tr.Spans("tx0"); got != nil {
		t.Fatalf("evicted trace still has spans: %v", got)
	}
}

func TestSpanCap(t *testing.T) {
	tr := New(0)
	id := tr.Mint("tx1")
	at := time.Unix(0, 0)
	for i := 0; i < maxSpansPerTrace+50; i++ {
		tr.Record(id, SpanCommitVSCC, "p", at, at)
	}
	if n := len(tr.Spans(id)); n != maxSpansPerTrace {
		t.Fatalf("span cap not enforced: %d", n)
	}
}

func TestBlockOriginFirstWriteWins(t *testing.T) {
	tr := New(0)
	tr.BlockOrigin("ch1", 7, "gossip", 2)
	tr.BlockOrigin("ch1", 7, "antientropy", 0)
	src, hops, ok := tr.OriginOf("ch1", 7)
	if !ok || src != "gossip" || hops != 2 {
		t.Fatalf("OriginOf = %q,%d,%v", src, hops, ok)
	}
	if _, _, ok := tr.OriginOf("ch2", 7); ok {
		t.Fatal("origin leaked across channels")
	}
}

// TestCriticalPathExactPartition is the acceptance-criterion unit test:
// the boundary phases must sum to within 5% of the measured end-to-end
// latency. By construction they partition it, so the error is zero.
func TestCriticalPathExactPartition(t *testing.T) {
	tr := New(0)
	id := tr.Mint("tx1")
	base := time.Unix(2000, 0)
	t0 := base
	t1 := base.Add(3 * time.Millisecond)   // propose done
	t2 := base.Add(48 * time.Millisecond)  // endorse done
	t3 := base.Add(61 * time.Millisecond)  // broadcast acked
	t4 := base.Add(460 * time.Millisecond) // committed
	tr.Record(id, SpanGatewayPropose, "client1", t0, t1)
	tr.Record(id, SpanGatewayEndorse, "client1", t1, t2)
	tr.Record(id, SpanGatewaySubmit, "client1", t2, t3)
	tr.Record(id, SpanGatewayCommitWait, "client1", t3, t4)
	// Detail spans must not perturb the decomposition.
	tr.Record(id, SpanEndorserExecute, "peer1", t1.Add(time.Millisecond), t2.Add(-time.Millisecond))
	tr.Record(id, SpanCommitVSCC, "peer1", t3.Add(100*time.Millisecond), t3.Add(150*time.Millisecond))

	cp, ok := tr.CriticalPath(id)
	if !ok {
		t.Fatal("no critical path")
	}
	endToEnd := t4.Sub(t0)
	if cp.Total != endToEnd {
		t.Fatalf("Total = %s, want %s", cp.Total, endToEnd)
	}
	var sum time.Duration
	for _, p := range cp.Phases {
		sum += p.Duration
	}
	diff := float64(sum-endToEnd) / float64(endToEnd)
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.05 {
		t.Fatalf("phase sum %s differs from end-to-end %s by %.1f%%", sum, endToEnd, diff*100)
	}
	if cp.Dominant != SpanGatewayCommitWait {
		t.Fatalf("dominant = %s, want %s", cp.Dominant, SpanGatewayCommitWait)
	}
}

func TestCriticalPathRetryBackoffGap(t *testing.T) {
	tr := New(0)
	id := tr.Mint("tx1")
	base := time.Unix(3000, 0)
	// Attempt 1: propose+endorse, then the attempt aborts; attempt 2
	// starts 20ms later (backoff) and commits.
	tr.Record(id, SpanGatewayPropose, "c", base, base.Add(2*time.Millisecond), "attempt", "1")
	tr.Record(id, SpanGatewayEndorse, "c", base.Add(2*time.Millisecond), base.Add(10*time.Millisecond), "attempt", "1")
	a2 := base.Add(30 * time.Millisecond)
	tr.Record(id, SpanGatewayPropose, "c", a2, a2.Add(2*time.Millisecond), "attempt", "2")
	tr.Record(id, SpanGatewayEndorse, "c", a2.Add(2*time.Millisecond), a2.Add(10*time.Millisecond), "attempt", "2")
	tr.Record(id, SpanGatewaySubmit, "c", a2.Add(10*time.Millisecond), a2.Add(12*time.Millisecond), "attempt", "2")
	tr.Record(id, SpanGatewayCommitWait, "c", a2.Add(12*time.Millisecond), a2.Add(50*time.Millisecond), "attempt", "2")

	cp, ok := tr.CriticalPath(id)
	if !ok {
		t.Fatal("no critical path")
	}
	var backoff time.Duration
	var sum time.Duration
	for _, p := range cp.Phases {
		sum += p.Duration
		if p.Name == "retry-backoff" {
			backoff = p.Duration
		}
	}
	if sum != cp.Total {
		t.Fatalf("phases sum %s != total %s", sum, cp.Total)
	}
	if backoff != 20*time.Millisecond {
		t.Fatalf("retry-backoff = %s, want 20ms", backoff)
	}
}

func TestCriticalPathUnknownOrDetailOnly(t *testing.T) {
	tr := New(0)
	if _, ok := tr.CriticalPath("missing"); ok {
		t.Fatal("critical path for unknown trace")
	}
	id := tr.Mint("tx1")
	tr.Record(id, SpanCommitApply, "peer1", time.Unix(0, 0), time.Unix(1, 0))
	if _, ok := tr.CriticalPath(id); ok {
		t.Fatal("critical path without boundary spans")
	}
}

func TestTreeRendering(t *testing.T) {
	tr := New(0)
	id := tr.Mint("tx1")
	base := time.Unix(4000, 0)
	tr.Record(id, SpanGatewayEndorse, "client1", base, base.Add(40*time.Millisecond))
	tr.Record(id, SpanEndorserExecute, "peer2", base.Add(5*time.Millisecond), base.Add(35*time.Millisecond), "queue_wait", "1ms")
	out := Tree(tr.Spans(id))
	if !strings.Contains(out, SpanGatewayEndorse) {
		t.Fatalf("tree missing boundary span:\n%s", out)
	}
	if !strings.Contains(out, "  "+SpanEndorserExecute) {
		t.Fatalf("detail span not nested:\n%s", out)
	}
	if !strings.Contains(out, "queue_wait=1ms") {
		t.Fatalf("attrs not rendered:\n%s", out)
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := tr.Mint(fmt.Sprintf("g%d-tx%d", g, i))
				tr.Record(id, SpanGatewayPropose, "c", time.Now(), time.Now())
				tr.BlockOrigin("ch1", uint64(i), "gossip", g)
				tr.Spans(id)
				tr.CriticalPath(id)
				_, _, _ = tr.OriginOf("ch1", uint64(i))
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != 64 {
		t.Fatalf("retained %d traces, want 64", tr.Len())
	}
}
