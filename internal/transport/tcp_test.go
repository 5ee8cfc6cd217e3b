package transport

import (
	"context"
	"encoding/gob"
	"errors"
	"sync"
	"testing"
	"time"
)

type tcpTestPayload struct {
	N int
	S string
}

var tcpGobOnce sync.Once

func tcpPair(t *testing.T) (*TCPEndpoint, *TCPEndpoint) {
	t.Helper()
	tcpGobOnce.Do(func() {
		gob.Register(&tcpTestPayload{})
		gob.Register("")
		gob.Register(0)
	})
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
	return a, b
}

func TestTCPCallRoundTrip(t *testing.T) {
	a, b := tcpPair(t)
	b.Handle("echo", func(_ context.Context, from string, payload any) (any, int, error) {
		p := payload.(*tcpTestPayload)
		return &tcpTestPayload{N: p.N * 2, S: from + ":" + p.S}, 0, nil
	})
	raw, err := a.Call(context.Background(), "b", "echo", &tcpTestPayload{N: 21, S: "hi"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := raw.(*tcpTestPayload)
	if got.N != 42 || got.S != "a:hi" {
		t.Errorf("got %+v", got)
	}
}

func TestTCPSend(t *testing.T) {
	a, b := tcpPair(t)
	got := make(chan any, 1)
	b.Handle("oneway", func(_ context.Context, _ string, payload any) (any, int, error) {
		got <- payload
		return nil, 0, nil
	})
	if err := a.Send("b", "oneway", &tcpTestPayload{N: 7}, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v.(*tcpTestPayload).N != 7 {
			t.Errorf("payload %+v", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("not delivered")
	}
}

func TestTCPHandlerError(t *testing.T) {
	a, b := tcpPair(t)
	b.Handle("boom", func(_ context.Context, _ string, _ any) (any, int, error) {
		return nil, 0, errors.New("kapow")
	})
	if _, err := a.Call(context.Background(), "b", "boom", &tcpTestPayload{}, 0); err == nil || err.Error() != "kapow" {
		t.Errorf("err = %v", err)
	}
}

func TestTCPNoHandler(t *testing.T) {
	a, _ := tcpPair(t)
	if _, err := a.Call(context.Background(), "b", "missing", &tcpTestPayload{}, 0); err == nil {
		t.Error("unhandled kind succeeded")
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, _ := tcpPair(t)
	if err := a.Send("ghost", "k", &tcpTestPayload{}, 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v", err)
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	a, b := tcpPair(t)
	b.Handle("id", func(_ context.Context, _ string, payload any) (any, int, error) {
		return payload, 0, nil
	})
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, err := a.Call(context.Background(), "b", "id", &tcpTestPayload{N: i}, 0)
			if err != nil {
				errs <- err
				return
			}
			if raw.(*tcpTestPayload).N != i {
				errs <- errors.New("reply mismatch")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTCPBidirectional(t *testing.T) {
	// b can call a over the registry even though a dialed first.
	a, b := tcpPair(t)
	a.Handle("ping", func(_ context.Context, _ string, _ any) (any, int, error) {
		return &tcpTestPayload{S: "pong"}, 0, nil
	})
	b.Handle("ping", func(_ context.Context, _ string, _ any) (any, int, error) {
		return &tcpTestPayload{S: "pong-b"}, 0, nil
	})
	if _, err := a.Call(context.Background(), "b", "ping", &tcpTestPayload{}, 0); err != nil {
		t.Fatal(err)
	}
	raw, err := b.Call(context.Background(), "a", "ping", &tcpTestPayload{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if raw.(*tcpTestPayload).S != "pong" {
		t.Errorf("got %+v", raw)
	}
}

func TestTCPCloseUnblocks(t *testing.T) {
	a, b := tcpPair(t)
	b.Handle("hang", func(ctx context.Context, _ string, _ any) (any, int, error) {
		time.Sleep(50 * time.Millisecond)
		return &tcpTestPayload{}, 0, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := a.Call(ctx, "b", "hang", &tcpTestPayload{}, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Call(context.Background(), "b", "hang", &tcpTestPayload{}, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("call after close: %v", err)
	}
}

// TestTCPCallReturnsOnClose closes an endpoint while one of its calls,
// made without a deadline, waits on a handler that never replies. The
// call must return ErrClosed, as a MemEndpoint call does, instead of
// waiting forever.
func TestTCPCallReturnsOnClose(t *testing.T) {
	a, b := tcpPair(t)
	started, release := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(release) }) // runs before the registry closes
	b.Handle("hang", func(context.Context, string, any) (any, int, error) {
		close(started)
		<-release
		return &tcpTestPayload{}, 0, nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := a.Call(context.Background(), "b", "hang", &tcpTestPayload{}, 0)
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
}

// TestTCPCallWithinTimesOut is TestCallWithinTimesOut over sockets: a
// call to a handler that never replies returns context.DeadlineExceeded
// within 50 ms past its timeout, and the next call on the endpoint
// still completes.
func TestTCPCallWithinTimesOut(t *testing.T) {
	a, b := tcpPair(t)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // runs before the endpoints close
	b.Handle("never", func(_ context.Context, _ string, _ any) (any, int, error) {
		<-release
		return nil, 0, nil
	})
	b.Handle("echo", func(_ context.Context, _ string, payload any) (any, int, error) {
		return payload, 0, nil
	})
	const timeout = 30 * time.Millisecond
	for round := 0; round < 3; round++ {
		start := time.Now()
		_, err := a.CallWithin(context.Background(), timeout, "b", "never", &tcpTestPayload{N: round}, 0)
		elapsed := time.Since(start)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("round %d: err = %v, want context.DeadlineExceeded", round, err)
		}
		if elapsed < timeout || elapsed > timeout+50*time.Millisecond {
			t.Errorf("round %d: timed out after %v, want within [%v, %v]", round, elapsed, timeout, timeout+50*time.Millisecond)
		}
		raw, err := a.CallWithin(context.Background(), time.Second, "b", "echo", &tcpTestPayload{N: round}, 0)
		if err != nil {
			t.Fatalf("round %d: call after a timeout: %v", round, err)
		}
		if got := raw.(*tcpTestPayload); got.N != round {
			t.Errorf("round %d: echo returned %+v", round, got)
		}
	}
}
