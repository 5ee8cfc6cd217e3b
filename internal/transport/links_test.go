package transport

import (
	"context"
	"encoding/gob"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestLinkSetResolutionOrder(t *testing.T) {
	ls := NewLinkSet(LinkProps{Latency: time.Millisecond})

	// Default applies when nothing else matches.
	if p := ls.PropsFor("a", "b"); p.Latency != time.Millisecond {
		t.Fatalf("default latency = %v", p.Latency)
	}

	// A region-pair matrix entry beats the default.
	ls.SetRegion("a", "east")
	ls.SetRegion("b", "west")
	ls.SetRegionProps(RegionMatrix{
		"east": {"west": {Latency: 40 * time.Millisecond}},
	})
	if p := ls.PropsFor("a", "b"); p.Latency != 40*time.Millisecond {
		t.Fatalf("matrix latency = %v", p.Latency)
	}
	// The matrix is directional: the reverse pair has no entry.
	if p := ls.PropsFor("b", "a"); p.Latency != time.Millisecond {
		t.Fatalf("reverse latency = %v", p.Latency)
	}

	// A per-link override beats the matrix.
	ls.Set("a", "b", LinkProps{Latency: 7 * time.Millisecond})
	if p := ls.PropsFor("a", "b"); p.Latency != 7*time.Millisecond {
		t.Fatalf("override latency = %v", p.Latency)
	}

	// A cut beats everything; Sample reports the drop.
	ls.Partition([]string{"a"}, []string{"b"})
	if !ls.Severed("a", "b") {
		t.Fatal("cut link not severed")
	}
	if _, drop := ls.Sample("a", "b"); !drop {
		t.Fatal("Sample did not drop on severed link")
	}
	ls.Heal([]string{"a"}, []string{"b"})

	// Isolation severs both directions.
	ls.Isolate("b", true)
	if !ls.Severed("a", "b") || !ls.Severed("b", "a") {
		t.Fatal("isolated node not severed both ways")
	}
	ls.Isolate("b", false)

	// Dropping the override falls back to the matrix; the cut stays healed.
	ls.Unset("a", "b")
	if p := ls.PropsFor("a", "b"); p.Latency != 40*time.Millisecond {
		t.Fatalf("post-unset latency = %v (want matrix value)", p.Latency)
	}
	if ls.Severed("a", "b") {
		t.Fatal("heal did not restore the link")
	}
}

func TestNamedMatrix(t *testing.T) {
	for _, name := range []string{"wan2", "wan3"} {
		m, regions, ok := NamedMatrix(name)
		if !ok {
			t.Fatalf("NamedMatrix(%q) unknown", name)
		}
		if len(regions) < 2 {
			t.Fatalf("%s: %d regions", name, len(regions))
		}
		for _, src := range regions {
			for _, dst := range regions {
				if _, ok := m[src][dst]; !ok {
					t.Errorf("%s: missing %s->%s", name, src, dst)
				}
			}
		}
	}
	if _, _, ok := NamedMatrix("nope"); ok {
		t.Fatal("unknown matrix reported ok")
	}
}

// TestLinkFateForCalls pins the RPC-vs-send semantics: a severed link
// fails a Call fast, total loss delays a Call (retransmission) but
// still completes it, and a one-way Send is eaten silently.
func TestLinkFateForCalls(t *testing.T) {
	n, a, b := pair(t, Config{TimeScale: 0.01})
	echoes := make(chan struct{}, 64)
	b.Handle("echo", func(_ context.Context, _ string, payload any) (any, int, error) {
		echoes <- struct{}{}
		return payload, 8, nil
	})

	n.Links().Partition([]string{"a"}, []string{"b"})
	if _, err := a.Call(context.Background(), "b", "echo", 1, 8); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("call over cut link: err = %v, want ErrLinkDown", err)
	}
	n.Links().Heal([]string{"a"}, []string{"b"})

	n.Links().Set("a", "b", LinkProps{Loss: 1.0})
	done := make(chan error, 1)
	go func() {
		_, err := a.Call(context.Background(), "b", "echo", 2, 8)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call over lossy link: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call over lossy link hung")
	}

	// Drain the echo the call produced, then verify a one-way send
	// disappears without a trace.
	<-echoes
	if err := a.Send("b", "echo", 3, 8); err != nil {
		t.Fatalf("send over lossy link errored: %v", err)
	}
	select {
	case <-echoes:
		t.Fatal("one-way send survived a 100% lossy link")
	case <-time.After(100 * time.Millisecond):
	}
}

// TestLinkKeysDoNotCollide sends over "a->b" to "c" and "a" to "b->c",
// two directed links whose endpoints join to the same "a->b->c": cutting
// or congesting one must leave the other delivering.
func TestLinkKeysDoNotCollide(t *testing.T) {
	n := NewNetwork(Config{})
	t.Cleanup(n.Close)
	eps := map[string]*MemEndpoint{}
	for _, id := range []string{"a->b", "c", "a", "b->c"} {
		ep, err := n.Register(id)
		if err != nil {
			t.Fatal(err)
		}
		ep.Handle("echo", func(_ context.Context, _ string, payload any) (any, int, error) {
			return payload, 8, nil
		})
		eps[id] = ep
	}
	callOther := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, err := eps["a"].Call(ctx, "b->c", "echo", 1, 8)
		return err
	}

	n.Links().Partition([]string{"a->b"}, []string{"c"})
	if _, err := eps["a->b"].Call(context.Background(), "c", "echo", 1, 8); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("call over cut link: err = %v, want ErrLinkDown", err)
	}
	if err := callOther(); err != nil {
		t.Fatalf("cutting a->b -> c severed a -> b->c: %v", err)
	}
	n.Links().Heal([]string{"a->b"}, []string{"c"})

	// Hold every message on a->b -> c at its link's pump until the
	// link's queue overflows.
	n.Links().Set("a->b", "c", LinkProps{Latency: 300 * time.Millisecond})
	congested := false
	for i := 0; i < 5000 && !congested; i++ {
		congested = eps["a->b"].Send("c", "echo", i, 8) != nil
	}
	if !congested {
		t.Fatal("a->b -> c never congested")
	}
	start := time.Now()
	if err := callOther(); err != nil {
		t.Fatalf("congestion on a->b -> c stalled a -> b->c: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("a -> b->c took %s behind a congested a->b -> c", elapsed)
	}
}

// mutateLinkSet hammers every LinkSet mutator so the race detector can
// observe conflicts with concurrent senders.
func mutateLinkSet(ls *LinkSet, rounds int) {
	for i := 0; i < rounds; i++ {
		ls.Set("a", "b", LinkProps{Latency: time.Duration(i) * time.Microsecond, Loss: 0.05})
		ls.SetRegion("a", "east")
		ls.SetRegionProps(RegionMatrix{"east": {"east": {Latency: time.Microsecond}}})
		ls.Partition([]string{"a"}, []string{"c"})
		_ = ls.Severed("a", "c")
		_, _ = ls.Sample("a", "b")
		ls.Heal([]string{"a"}, []string{"c"})
		ls.Isolate("b", true)
		ls.Isolate("b", false)
		ls.Unset("a", "b")
		ls.SetDefault(LinkProps{Latency: time.Duration(i%3) * time.Microsecond})
		ls.Seed(int64(i))
	}
}

// TestLinkSetConcurrentMemTraffic runs senders mid-flight on the
// in-memory transport while the link matrix is mutated from other
// goroutines. Meaningful under -race; also asserts no call ever hangs.
func TestLinkSetConcurrentMemTraffic(t *testing.T) {
	n := NewNetwork(Config{TimeScale: 0.001})
	t.Cleanup(n.Close)
	eps := map[string]*MemEndpoint{}
	for _, id := range []string{"a", "b", "c"} {
		ep, err := n.Register(id)
		if err != nil {
			t.Fatal(err)
		}
		ep.Handle("echo", func(_ context.Context, _ string, payload any) (any, int, error) {
			return payload, 8, nil
		})
		eps[id] = ep
	}

	var wg sync.WaitGroup
	for _, src := range []string{"a", "b", "c"} {
		for _, dst := range []string{"a", "b", "c"} {
			if src == dst {
				continue
			}
			src, dst := src, dst
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					// Calls may fail (cut links) but must always return.
					_, _ = eps[src].Call(context.Background(), dst, "echo", i, 8)
					_ = eps[src].Send(dst, "echo", i, 8)
				}
			}()
		}
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mutateLinkSet(n.Links(), 200)
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("traffic deadlocked against link mutations")
	}
}

// TestLinkSetConcurrentTCPTraffic is the same race exercise over the
// TCP transport, whose write path samples the matrix inline.
func TestLinkSetConcurrentTCPTraffic(t *testing.T) {
	tcpGobOnce.Do(func() {
		gob.Register(&tcpTestPayload{})
		gob.Register("")
		gob.Register(0)
	})
	reg := NewTCPNetwork()
	t.Cleanup(reg.Close)
	eps := map[string]*TCPEndpoint{}
	for _, id := range []string{"a", "b", "c"} {
		ep, err := reg.Register(id)
		if err != nil {
			t.Fatal(err)
		}
		ep.Handle("add", func(_ context.Context, _ string, payload any) (any, int, error) {
			return payload, 8, nil
		})
		eps[id] = ep
	}

	var wg sync.WaitGroup
	for _, src := range []string{"a", "b", "c"} {
		for _, dst := range []string{"a", "b", "c"} {
			if src == dst {
				continue
			}
			src, dst := src, dst
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					_, _ = eps[src].Call(ctx, dst, "add", i, 8)
					cancel()
					_ = eps[src].Send(dst, "add", i, 8)
				}
			}()
		}
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mutateLinkSet(reg.Links(), 80)
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatal("TCP traffic deadlocked against link mutations")
	}
}
