package zookeeper

import (
	"errors"
	"testing"
	"time"
)

func TestCreateSetExists(t *testing.T) {
	e := New(3, 0)
	s := e.Connect(time.Second)

	if ok, _ := s.Exists("/config"); ok {
		t.Fatal("znode exists before Create")
	}
	if err := s.Create("/config", []byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Exists("/config"); !ok || err != nil {
		t.Errorf("Exists after Create = %v, %v", ok, err)
	}
	if err := s.Set("/config", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("/missing", nil); !errors.Is(err, ErrNoNode) {
		t.Errorf("Set on a missing znode: %v", err)
	}
}

func TestCreateErrors(t *testing.T) {
	e := New(3, 0)
	s := e.Connect(time.Second)
	if err := s.Create("/a/b", nil, 0); !errors.Is(err, ErrNoNode) {
		t.Errorf("create under missing parent: %v", err)
	}
	_ = s.Create("/a", nil, 0)
	if err := s.Create("/a", nil, 0); !errors.Is(err, ErrNodeExists) {
		t.Errorf("duplicate create: %v", err)
	}
}

func TestEphemeralReleasedOnClose(t *testing.T) {
	e := New(3, 0)
	owner := e.Connect(time.Second)
	watcher := e.Connect(time.Second)
	_ = owner.Create("/brokers", nil, 0)
	if err := owner.Create("/brokers/b1", nil, FlagEphemeral); err != nil {
		t.Fatal(err)
	}
	owner.Close()
	if ok, _ := watcher.Exists("/brokers/b1"); ok {
		t.Error("ephemeral survived session close")
	}
	if ok, _ := watcher.Exists("/brokers"); !ok {
		t.Error("persistent znode released with its creator's session")
	}
	if err := owner.Create("/x", nil, 0); !errors.Is(err, ErrSessionExpired) {
		t.Errorf("closed session usable: %v", err)
	}
}

func TestSessionExpiry(t *testing.T) {
	e := New(3, 0)
	s := e.Connect(10 * time.Millisecond)
	if err := s.Create("/live", nil, FlagEphemeral); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	e.ExpireStale()
	other := e.Connect(time.Second)
	if ok, _ := other.Exists("/live"); ok {
		t.Error("ephemeral survived session expiry")
	}
	if err := s.Ping(); !errors.Is(err, ErrSessionExpired) {
		t.Errorf("expired session ping: %v", err)
	}
}

func TestPingKeepsAlive(t *testing.T) {
	e := New(3, 0)
	s := e.Connect(50 * time.Millisecond)
	for i := 0; i < 5; i++ {
		time.Sleep(20 * time.Millisecond)
		if err := s.Ping(); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		e.ExpireStale()
	}
	if err := s.Create("/ok", nil, 0); err != nil {
		t.Errorf("pinged session expired: %v", err)
	}
}

func TestWriteDelayGrowsWithEnsemble(t *testing.T) {
	small := New(3, 2*time.Millisecond)
	big := New(7, 2*time.Millisecond)
	ss, sb := small.Connect(time.Second), big.Connect(time.Second)

	measure := func(s *Session, path string) time.Duration {
		start := time.Now()
		if err := s.Create(path, nil, 0); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	dSmall := measure(ss, "/a")
	dBig := measure(sb, "/a")
	if dBig <= dSmall/2 {
		t.Errorf("7-node write (%s) not slower than 3-node (%s)", dBig, dSmall)
	}
}
