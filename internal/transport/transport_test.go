package transport

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fabricsim/internal/simtest"
	"fabricsim/internal/workers"
)

func pair(t *testing.T, cfg Config) (*Network, *MemEndpoint, *MemEndpoint) {
	t.Helper()
	n := NewNetwork(cfg)
	t.Cleanup(n.Close)
	a, err := n.Register("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Register("b")
	if err != nil {
		t.Fatal(err)
	}
	return n, a, b
}

func TestDuplicateRegistration(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	if _, err := n.Register("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register("x"); err == nil {
		t.Error("duplicate id accepted")
	}
}

// TestNodeDown checks a crashed node's contract: a node is down while
// its links are isolated, a call to or from it fails with ErrLinkDown, a
// one-way send to it is dropped for good, and traffic flows again once
// it is back up.
func TestNodeDown(t *testing.T) {
	n, a, b := pair(t, Config{})
	var mu sync.Mutex
	var got []any
	record := func(_ context.Context, _ string, payload any) (any, int, error) {
		mu.Lock()
		got = append(got, payload)
		mu.Unlock()
		return payload, 8, nil
	}
	a.Handle("k", record)
	b.Handle("k", record)
	ctx := context.Background()

	n.Links().Isolate("b", true)
	if !n.Links().Isolated("b") {
		t.Error("Isolated false while down")
	}
	if _, err := a.Call(ctx, "b", "k", "to down", 8); !errors.Is(err, ErrLinkDown) {
		t.Errorf("call to down node: err = %v, want ErrLinkDown", err)
	}
	if _, err := b.Call(ctx, "a", "k", "from down", 8); !errors.Is(err, ErrLinkDown) {
		t.Errorf("call from down node: err = %v, want ErrLinkDown", err)
	}
	if err := a.Send("b", "k", "dropped", 8); err != nil {
		t.Errorf("send to down node: %v", err)
	}

	n.Links().Isolate("b", false)
	if n.Links().Isolated("b") {
		t.Error("Isolated true after recovery")
	}
	if resp, err := a.Call(ctx, "b", "k", "after", 8); err != nil || resp != "after" {
		t.Fatalf("call after recovery = %v, %v", resp, err)
	}
	n.Close() // waits for every handler, so got is final
	if len(got) != 1 || got[0] != "after" {
		t.Errorf("handlers saw %v, want only [after]", got)
	}
}

// Link delivery must be lossless under the bandwidth model. (Delivery
// into the endpoint is FIFO per link, but handlers run concurrently —
// like gRPC servers — so observation order is not asserted; protocols
// that need ordering carry sequence numbers, as Raft/Kafka/deliver do.)
func TestLinkLossless(t *testing.T) {
	_, a, b := pair(t, Config{Latency: time.Millisecond, Bandwidth: 1e6, TimeScale: 0.01})
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	const total = 100
	b.Handle("seq", func(_ context.Context, _ string, payload any) (any, int, error) {
		mu.Lock()
		got = append(got, payload.(int))
		if len(got) == total {
			close(done)
		}
		mu.Unlock()
		return nil, 0, nil
	})
	for i := 0; i < total; i++ {
		if err := a.Send("b", "seq", i, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("messages lost")
	}
	seen := make(map[int]bool, total)
	for _, v := range got {
		if seen[v] {
			t.Fatalf("message %d duplicated", v)
		}
		seen[v] = true
	}
	if len(seen) != total {
		t.Fatalf("delivered %d distinct messages, want %d", len(seen), total)
	}
}

// The bandwidth model must delay large messages measurably.
func TestBandwidthDelay(t *testing.T) {
	_, a, b := pair(t, Config{Bandwidth: 1e6, TimeScale: 1.0}) // 1 MB/s
	got := make(chan time.Time, 1)
	b.Handle("big", func(_ context.Context, _ string, _ any) (any, int, error) {
		got <- time.Now()
		return nil, 0, nil
	})
	start := time.Now()
	if err := a.Send("b", "big", nil, 100_000); err != nil { // 100 KB -> 100ms
		t.Fatal(err)
	}
	select {
	case at := <-got:
		if d := at.Sub(start); d < 80*time.Millisecond {
			t.Errorf("100KB at 1MB/s delivered in %s, want ~100ms", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("not delivered")
	}
}

func TestCloseStopsEndpoints(t *testing.T) {
	n, a, _ := pair(t, Config{})
	n.Close()
	if err := a.Send("b", "k", nil, 0); err == nil {
		t.Error("send after close succeeded")
	}
	if _, err := n.Register("c"); !errors.Is(err, ErrClosed) {
		t.Errorf("register after close: %v", err)
	}
}

// TestCloseDuringDispatch hammers the Close-vs-dispatch handoff: an
// endpoint is closed while a flood of messages is still being dispatched
// to its handler. Run with -race; the original implementation raced
// the dispatcher's hwg.Add against hwg.Wait in Close.
func TestCloseDuringDispatch(t *testing.T) {
	for round := 0; round < 20; round++ {
		n := NewNetwork(Config{})
		a, err := n.Register("a")
		if err != nil {
			t.Fatal(err)
		}
		b, err := n.Register("b")
		if err != nil {
			t.Fatal(err)
		}
		b.Handle("work", func(context.Context, string, any) (any, int, error) {
			return "ok", 2, nil
		})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := a.Send("b", "work", i, 8); err != nil {
					return
				}
			}
		}()
		// Close the receiving endpoint while sends are in flight.
		_ = b.Close()
		wg.Wait()
		n.Close()
	}
}

// TestCallToClosedEndpointFails closes an endpoint that stays
// registered, as a crashed process's address stays known until it
// restarts: a call that reaches it must fail at once with ErrLinkDown,
// not wait out its caller's deadline.
func TestCallToClosedEndpointFails(t *testing.T) {
	_, a, b := pair(t, Config{})
	b.Handle("echo", echo)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := a.Call(ctx, "b", "echo", &callPayload{}, 16); err == nil || err.Error() != ErrLinkDown.Error() {
		t.Fatalf("call to closed endpoint: err = %v, want ErrLinkDown", err)
	}
}

// TestDeregisterAndReRegister checks the peer-restart path: after a
// Deregister the node ID is free again, and traffic sent post-restart
// reaches the NEW endpoint, not the closed one.
func TestDeregisterAndReRegister(t *testing.T) {
	n := NewNetwork(Config{TimeScale: 1.0})
	defer n.Close()
	a, err := n.Register("a")
	if err != nil {
		t.Fatal(err)
	}
	b1, err := n.Register("b")
	if err != nil {
		t.Fatal(err)
	}
	oldHits := make(chan struct{}, 16)
	b1.Handle("ping", func(_ context.Context, _ string, _ any) (any, int, error) {
		oldHits <- struct{}{}
		return "old", 3, nil
	})
	if raw, err := a.Call(context.Background(), "b", "ping", nil, 4); err != nil || raw != "old" {
		t.Fatalf("pre-restart call = %v, %v", raw, err)
	}
	<-oldHits

	n.Deregister("b")
	if err := a.Send("b", "ping", nil, 4); err == nil {
		t.Error("send to deregistered node succeeded")
	}

	b2, err := n.Register("b")
	if err != nil {
		t.Fatalf("re-register after Deregister: %v", err)
	}
	b2.Handle("ping", func(_ context.Context, _ string, _ any) (any, int, error) {
		return "new", 3, nil
	})
	raw, err := a.Call(context.Background(), "b", "ping", nil, 4)
	if err != nil || raw != "new" {
		t.Fatalf("post-restart call = %v, %v", raw, err)
	}
	select {
	case <-oldHits:
		t.Error("old endpoint received post-restart traffic")
	default:
	}
}

// callPayload is a pointer payload, so a reply can be matched to its own
// request by identity.
type callPayload struct{ sender, seq int }

func echo(_ context.Context, _ string, payload any) (any, int, error) {
	return payload, 16, nil
}

// callEcho makes one echo call and checks the reply is its own request.
func callEcho(ctx context.Context, e *MemEndpoint, to string, req *callPayload) error {
	return callEchoWithin(ctx, 0, e, to, req)
}

// callEchoWithin is callEcho bounded by timeout.
func callEchoWithin(ctx context.Context, timeout time.Duration, e *MemEndpoint, to string, req *callPayload) error {
	resp, err := e.CallWithin(ctx, timeout, to, "echo", req, 16)
	if err != nil {
		return fmt.Errorf("call %+v: %w", *req, err)
	}
	if got, ok := resp.(*callPayload); !ok || got != req {
		return fmt.Errorf("call %+v: got reply %v", *req, resp)
	}
	return nil
}

// TestCallStress runs 8 senders × 1 000 calls against one echo handler.
// Every reply must be its own request. Under -race, a reply channel or a
// handler worker handed to two calls at once shows up here as a
// mismatch or a data race.
func TestCallStress(t *testing.T) {
	_, a, b := pair(t, Config{})
	b.Handle("echo", echo)
	const senders, calls = 8, 1000
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if err := callEcho(context.Background(), a, "b", &callPayload{sender: s, seq: i}); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// hold is a "hold" request: its handler closes started, then replies
// with the hold itself once release is closed.
type hold struct{ started, release chan struct{} }

func newHold() *hold { return &hold{started: make(chan struct{}), release: make(chan struct{})} }

func handleHold(_ context.Context, _ string, payload any) (any, int, error) {
	h := payload.(*hold)
	close(h.started)
	<-h.release
	return h, 16, nil
}

// TestLateReplyNotSeenByLaterCall delivers a frame for a call after its
// caller has stopped waiting, then checks that 100 later calls on the
// same endpoint each get their own reply: a stale frame must never land
// in a reply channel a later call waits on. In the first case the caller
// gives up before the real reply is sent. In the second, a link-drop
// failure (refuse) races the real reply, so whichever loses arrives
// late, possibly while the later calls run.
func TestLateReplyNotSeenByLaterCall(t *testing.T) {
	laterCalls := func(t *testing.T, a *MemEndpoint) {
		t.Helper()
		for i := 0; i < 100; i++ {
			if err := callEcho(context.Background(), a, "b", &callPayload{seq: i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	setup := func(t *testing.T) (*Network, *MemEndpoint) {
		n, a, b := pair(t, Config{})
		b.Handle("echo", echo)
		b.Handle("hold", handleHold)
		return n, a
	}

	t.Run("caller gave up", func(t *testing.T) {
		_, a := setup(t)
		for round := 0; round < 20; round++ {
			h := newHold()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := a.Call(ctx, "b", "hold", h, 16)
				done <- err
			}()
			<-h.started
			cancel()
			if err := <-done; !errors.Is(err, context.Canceled) {
				t.Fatalf("round %d: abandoned call returned %v", round, err)
			}
			close(h.release) // the reply now arrives with no caller waiting
			laterCalls(t, a)
		}
	})

	t.Run("link drop races the reply", func(t *testing.T) {
		n, a := setup(t)
		for round := 0; round < 20; round++ {
			h := newHold()
			done := make(chan error, 1)
			go func() {
				resp, err := a.Call(context.Background(), "b", "hold", h, 16)
				switch {
				case err != nil && err.Error() != ErrLinkDown.Error():
				case err == nil && resp != any(h):
					err = fmt.Errorf("hold call got reply %v", resp)
				default:
					err = nil
				}
				done <- err
			}()
			<-h.started
			corr := a.corr.Load() // the hold call is a's only call in flight
			var drop sync.WaitGroup
			drop.Add(1)
			go func() {
				defer drop.Done()
				n.refuse(frame{From: "a", to: "b", Corr: corr})
			}()
			close(h.release)
			if err := <-done; err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			laterCalls(t, a)
			drop.Wait()
		}
	})
}

// TestCloseLeavesNoGoroutines drives calls and sends both ways, parks
// handlers on the endpoint's context, closes the network, and checks the
// goroutine count returns to where it was: no link pump or handler
// goroutine outlives Close.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	n := NewNetwork(Config{})
	a, err := n.Register("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Register("b")
	if err != nil {
		t.Fatal(err)
	}
	a.Handle("echo", echo)
	b.Handle("echo", echo)
	var waiting atomic.Int32
	b.Handle("wait", func(ctx context.Context, _ string, _ any) (any, int, error) {
		waiting.Add(1)
		<-ctx.Done()
		return nil, 0, ctx.Err()
	})
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := callEcho(context.Background(), a, "b", &callPayload{sender: s, seq: i}); err != nil {
					t.Error(err)
					return
				}
				_ = b.Send("a", "echo", &callPayload{sender: s, seq: i}, 16)
			}
		}(s)
	}
	wg.Wait()
	const waiters = 10
	for i := 0; i < waiters; i++ {
		if err := a.Send("b", "wait", nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	simtest.Until(5*time.Second, func() bool { return waiting.Load() >= waiters })
	n.Close()

	if !simtest.Until(time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		got := runtime.NumGoroutine()
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Close, %d before the network:\n%s", got, before, buf[:runtime.Stack(buf, true)])
	}
}

// TestEndpointOwnsNoGoroutine registers and closes an idle endpoint and
// checks the goroutine count never rises: frames reach an endpoint on its
// links' pumps, so it runs no goroutine of its own until a request
// starts a handler worker.
func TestEndpointOwnsNoGoroutine(t *testing.T) {
	n := NewNetwork(Config{})
	defer n.Close()
	before := runtime.NumGoroutine()
	e, err := n.Register("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("Register: %d goroutines, %d before", got, before)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("Close: %d goroutines, %d before", got, before)
	}
}

// TestBlockedHandlerDoesNotStallOthers parks one handler until the test
// ends; 100 other calls to the same endpoint must still complete.
func TestBlockedHandlerDoesNotStallOthers(t *testing.T) {
	_, a, b := pair(t, Config{})
	h := newHold()
	t.Cleanup(func() { close(h.release) }) // runs before pair's Close
	b.Handle("hold", handleHold)
	b.Handle("echo", echo)
	if err := a.Send("b", "hold", h, 16); err != nil {
		t.Fatal(err)
	}
	<-h.started
	// The deadline turns a stall into a failure instead of a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 100; i++ {
		if err := callEcho(ctx, a, "b", &callPayload{seq: i}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHandlerConcurrencyUnbounded starts 200 calls whose handlers all
// wait on one barrier that opens only once every handler has started,
// so the calls complete only if the endpoint runs all 200 handlers at
// once. 200 is more than the idle-worker cache holds: a bounded handler
// pool deadlocks here.
func TestHandlerConcurrencyUnbounded(t *testing.T) {
	const calls = 200
	if calls <= workers.MaxIdle {
		t.Fatalf("%d calls do not exceed the %d-worker idle cache", calls, workers.MaxIdle)
	}
	_, a, b := pair(t, Config{})
	var started atomic.Int32
	barrier := make(chan struct{})
	b.Handle("barrier", func(ctx context.Context, _ string, payload any) (any, int, error) {
		if started.Add(1) == calls {
			close(barrier)
		}
		select {
		case <-barrier:
			return payload, 16, nil
		case <-ctx.Done(): // the endpoint closed on a failed test
			return nil, 0, ctx.Err()
		}
	})
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := &callPayload{seq: i}
			resp, err := a.Call(context.Background(), "b", "barrier", req, 16)
			if err != nil {
				errs <- err
			} else if resp != any(req) {
				errs <- fmt.Errorf("call %d: got reply %v", i, resp)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d of %d handlers started", started.Load(), calls)
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMemCallAllocs pins a steady-state round trip at zero allocations:
// the reply channel comes from the endpoint's free list, the handler
// runs on a parked worker, and a timed call's timer comes from the pool
// and goes back to it when the reply stops it.
func TestMemCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, timeout := range []time.Duration{0, time.Minute} {
		name := "Call"
		if timeout > 0 {
			name = "CallWithin"
		}
		t.Run(name, func(t *testing.T) {
			_, a, b := pair(t, Config{})
			b.Handle("echo", echo)
			req := &callPayload{}
			call := func() {
				if err := callEchoWithin(context.Background(), timeout, a, "b", req); err != nil {
					t.Fatal(err)
				}
			}
			call() // start the link pumps, park a handler worker, pool a timer
			if allocs := testing.AllocsPerRun(1000, call); allocs > 0 {
				t.Errorf("%s: %.1f allocations per round trip, want 0", name, allocs)
			}
		})
	}
}

// TestCallWithinNeverEndsEarly races replies against timeouts: 32
// goroutines make timed calls to a handler whose reply delay straddles
// the timeout, so replies and timer fires coincide often. A call that
// returns context.DeadlineExceeded before its timeout has elapsed woke
// on a tick a pooled timer kept from an earlier call; timers that fired
// unreceived are pooled too, so this holds only while Stop and Reset
// discard such a tick (Go 1.23 timer channels). Run it under
// -race -count=10.
func TestCallWithinNeverEndsEarly(t *testing.T) {
	_, a, b := pair(t, Config{})
	b.Handle("sleep", func(_ context.Context, _ string, payload any) (any, int, error) {
		time.Sleep(payload.(time.Duration))
		return nil, 0, nil
	})
	const goroutines, calls = 32, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				timeout := time.Duration(200+(g*37+i*101)%800) * time.Microsecond
				delay := timeout * time.Duration(6+(g+i)%9) / 10 // 0.6-1.4 × the timeout
				start := time.Now()
				_, err := a.CallWithin(context.Background(), timeout, "b", "sleep", delay, 0)
				elapsed := time.Since(start)
				switch {
				case errors.Is(err, context.DeadlineExceeded) && elapsed < timeout:
					t.Errorf("goroutine %d call %d: timed out after %v, before its %v timeout", g, i, elapsed, timeout)
				case err != nil && !errors.Is(err, context.DeadlineExceeded):
					t.Errorf("goroutine %d call %d: %v", g, i, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkMemCall(b *testing.B) {
	n := NewNetwork(Config{})
	defer n.Close()
	caller, _ := n.Register("a")
	callee, _ := n.Register("b")
	callee.Handle("echo", echo)
	req := &callPayload{}
	if err := callEcho(context.Background(), caller, "b", req); err != nil { // start the link pumps
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := callEcho(context.Background(), caller, "b", req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemCallWithin is BenchmarkMemCall with a timeout the reply
// always beats: the call arms, stops and pools one timer.
func BenchmarkMemCallWithin(b *testing.B) {
	n := NewNetwork(Config{})
	defer n.Close()
	caller, _ := n.Register("a")
	callee, _ := n.Register("b")
	callee.Handle("echo", echo)
	req := &callPayload{}
	if err := callEchoWithin(context.Background(), time.Minute, caller, "b", req); err != nil { // start the link pumps
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := callEchoWithin(context.Background(), time.Minute, caller, "b", req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemCallParallel(b *testing.B) {
	n := NewNetwork(Config{})
	defer n.Close()
	caller, _ := n.Register("a")
	callee, _ := n.Register("b")
	callee.Handle("echo", echo)
	if err := callEcho(context.Background(), caller, "b", &callPayload{}); err != nil { // start the link pumps
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		req := &callPayload{}
		for pb.Next() {
			if err := callEcho(context.Background(), caller, "b", req); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
