package transport

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// This file is the endpoint contract both wires keep: each test runs its
// check once on the in-memory network and once on loopback TCP.

// testPayload is a payload both wires carry: gob encodes its fields.
type testPayload struct {
	N int
	S string
}

var registerTestTypes = sync.OnceFunc(func() {
	gob.Register(&testPayload{})
	gob.Register("")
	gob.Register(0)
})

// wires builds two endpoints, "a" and "b", on each wire, with the links
// between them. TCP ignores cfg: its links are wall-clock and unscaled.
var wires = []struct {
	name string
	pair func(t *testing.T, cfg Config) (a, b Endpoint, links *LinkSet)
}{
	{"mem", func(t *testing.T, cfg Config) (Endpoint, Endpoint, *LinkSet) {
		n, a, b := pair(t, cfg)
		return a, b, n.Links()
	}},
	{"tcp", func(t *testing.T, _ Config) (Endpoint, Endpoint, *LinkSet) {
		a, b, reg := tcpPair(t)
		return a, b, reg.Links()
	}},
}

// onEachWire runs check as one subtest per wire.
func onEachWire(t *testing.T, cfg Config, check func(t *testing.T, a, b Endpoint, links *LinkSet)) {
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			a, b, links := w.pair(t, cfg)
			check(t, a, b, links)
		})
	}
}

func tcpPair(t *testing.T) (*TCPEndpoint, *TCPEndpoint, *TCPNetwork) {
	t.Helper()
	registerTestTypes()
	reg := NewTCPNetwork()
	t.Cleanup(reg.Close)
	a, err := reg.Register("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.Register("b")
	if err != nil {
		t.Fatal(err)
	}
	return a, b, reg
}

// callEchoPayload makes one echo call and checks the reply carries its
// request's value.
func callEchoPayload(ctx context.Context, timeout time.Duration, e Endpoint, req *testPayload) error {
	resp, err := e.CallWithin(ctx, timeout, "b", "echo", req, 16)
	if err != nil {
		return fmt.Errorf("call %+v: %w", *req, err)
	}
	if got, ok := resp.(*testPayload); !ok || *got != *req {
		return fmt.Errorf("call %+v: got reply %v", *req, resp)
	}
	return nil
}

func TestSendAndHandle(t *testing.T) {
	onEachWire(t, Config{}, func(t *testing.T, a, b Endpoint, _ *LinkSet) {
		got := make(chan string, 1)
		b.Handle("ping", func(_ context.Context, from string, payload any) (any, int, error) {
			p := payload.(*testPayload)
			got <- fmt.Sprintf("%s:%d:%s", from, p.N, p.S)
			return nil, 0, nil
		})
		if err := a.Send("b", "ping", &testPayload{N: 7, S: "hello"}, 5); err != nil {
			t.Fatal(err)
		}
		select {
		case v := <-got:
			if v != "a:7:hello" {
				t.Errorf("received %q", v)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("message not delivered")
		}
	})
}

func TestCallRoundTrip(t *testing.T) {
	onEachWire(t, Config{}, func(t *testing.T, a, b Endpoint, _ *LinkSet) {
		b.Handle("double", func(_ context.Context, from string, payload any) (any, int, error) {
			p := payload.(*testPayload)
			return &testPayload{N: p.N * 2, S: from + ":" + p.S}, 8, nil
		})
		resp, err := a.Call(context.Background(), "b", "double", &testPayload{N: 21, S: "hi"}, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.(*testPayload); got.N != 42 || got.S != "a:hi" {
			t.Errorf("resp = %+v", got)
		}
	})
}

// TestTCPBidirectional checks b can call a over the registry even though
// a dialed first.
func TestTCPBidirectional(t *testing.T) {
	a, b, _ := tcpPair(t)
	a.Handle("ping", func(_ context.Context, _ string, _ any) (any, int, error) {
		return &testPayload{S: "pong"}, 0, nil
	})
	b.Handle("ping", func(_ context.Context, _ string, _ any) (any, int, error) {
		return &testPayload{S: "pong-b"}, 0, nil
	})
	if _, err := a.Call(context.Background(), "b", "ping", &testPayload{}, 0); err != nil {
		t.Fatal(err)
	}
	raw, err := b.Call(context.Background(), "a", "ping", &testPayload{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if raw.(*testPayload).S != "pong" {
		t.Errorf("got %+v", raw)
	}
}

func TestCallHandlerError(t *testing.T) {
	onEachWire(t, Config{}, func(t *testing.T, a, b Endpoint, _ *LinkSet) {
		b.Handle("boom", func(_ context.Context, _ string, _ any) (any, int, error) {
			return &testPayload{N: 1}, 0, errors.New("exploded")
		})
		resp, err := a.Call(context.Background(), "b", "boom", &testPayload{}, 0)
		if err == nil || err.Error() != "exploded" || resp != nil {
			t.Errorf("resp, err = %v, %v", resp, err)
		}
	})
}

func TestCallNoHandler(t *testing.T) {
	onEachWire(t, Config{}, func(t *testing.T, a, _ Endpoint, _ *LinkSet) {
		_, err := a.Call(context.Background(), "b", "nothing", &testPayload{}, 0)
		if err == nil || !strings.Contains(err.Error(), ErrNoHandler.Error()) {
			t.Errorf("call to unhandled kind: err = %v, want %v", err, ErrNoHandler)
		}
	})
}

func TestUnknownNode(t *testing.T) {
	onEachWire(t, Config{}, func(t *testing.T, a, _ Endpoint, _ *LinkSet) {
		if err := a.Send("ghost", "k", &testPayload{}, 0); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestConcurrentCalls(t *testing.T) {
	onEachWire(t, Config{}, func(t *testing.T, a, b Endpoint, _ *LinkSet) {
		b.Handle("echo", echo)
		var wg sync.WaitGroup
		errs := make(chan error, 100)
		for i := 0; i < 100; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := callEchoPayload(context.Background(), 0, a, &testPayload{N: i}); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}

// TestCallTimeout calls a handler that waits on its context: the call
// returns its own context's error. The caller then closes, and a call
// after that fails with ErrClosed.
func TestCallTimeout(t *testing.T) {
	onEachWire(t, Config{}, func(t *testing.T, a, b Endpoint, _ *LinkSet) {
		b.Handle("slow", handleNever)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if _, err := a.Call(ctx, "b", "slow", &testPayload{}, 0); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v", err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Call(context.Background(), "b", "slow", &testPayload{}, 0); !errors.Is(err, ErrClosed) {
			t.Errorf("call after close: %v", err)
		}
	})
}

// handleNever is a handler that never replies: it returns only when its
// endpoint closes.
func handleNever(ctx context.Context, _ string, _ any) (any, int, error) {
	<-ctx.Done()
	return nil, 0, ctx.Err()
}

// TestCallWithinTimesOut calls a handler that never replies: CallWithin
// must return context.DeadlineExceeded no sooner than its timeout and
// within 50 ms of it. The calls after it on the same endpoint reuse the
// pooled timer, and neither a round trip nor the next timed-out call may
// end early on a tick left over from the first.
func TestCallWithinTimesOut(t *testing.T) {
	onEachWire(t, Config{}, func(t *testing.T, a, b Endpoint, _ *LinkSet) {
		b.Handle("echo", echo)
		b.Handle("never", handleNever)
		const timeout = 30 * time.Millisecond
		for round := 0; round < 3; round++ {
			start := time.Now()
			_, err := a.CallWithin(context.Background(), timeout, "b", "never", &testPayload{N: round}, 0)
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("round %d: err = %v, want context.DeadlineExceeded", round, err)
			}
			if elapsed < timeout || elapsed > timeout+50*time.Millisecond {
				t.Errorf("round %d: timed out after %v, want within [%v, %v]", round, elapsed, timeout, timeout+50*time.Millisecond)
			}
			if err := callEchoPayload(context.Background(), time.Second, a, &testPayload{N: round}); err != nil {
				t.Fatalf("round %d: call after a timeout: %v", round, err)
			}
		}
	})
}

// TestCallReturnsOnClose closes an endpoint while one of its calls, made
// without a deadline, waits on a handler that never replies. The call
// must return ErrClosed instead of waiting forever.
func TestCallReturnsOnClose(t *testing.T) {
	onEachWire(t, Config{}, func(t *testing.T, a, b Endpoint, _ *LinkSet) {
		started := make(chan struct{})
		b.Handle("hang", func(ctx context.Context, _ string, _ any) (any, int, error) {
			close(started)
			<-ctx.Done()
			return nil, 0, ctx.Err()
		})
		done := make(chan error, 1)
		go func() {
			_, err := a.Call(context.Background(), "b", "hang", &testPayload{}, 0)
			done <- err
		}()
		<-started
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("pending call after Close: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("pending call still blocked 5s after Close")
		}
	})
}

// TestCloseCancelsHandlers closes an endpoint while one of its handlers
// waits on its context, as a long poll does: Close must cancel that
// context and return, not wait on the handler forever.
func TestCloseCancelsHandlers(t *testing.T) {
	onEachWire(t, Config{}, func(t *testing.T, a, b Endpoint, _ *LinkSet) {
		parked := make(chan struct{})
		b.Handle("park", func(ctx context.Context, _ string, _ any) (any, int, error) {
			close(parked)
			<-ctx.Done()
			return nil, 0, ctx.Err()
		})
		if err := a.Send("b", "park", &testPayload{}, 16); err != nil {
			t.Fatal(err)
		}
		select {
		case <-parked:
		case <-time.After(5 * time.Second):
			t.Fatal("handler never started")
		}
		closed := make(chan error, 1)
		go func() { closed <- b.Close() }()
		select {
		case err := <-closed:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(3 * time.Second):
			t.Fatal("Close still blocked 3s behind a handler parked on its context")
		}
	})
}
