package chaos

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fabricsim/internal/transport"
)

// fakeCluster is an in-memory Cluster for controller and schedule
// tests: two orgs of two peers, one orderer, a real LinkSet.
type fakeCluster struct {
	mu          sync.Mutex
	links       *transport.LinkSet
	restarts    []string
	osnRestarts []string
	cores       map[string]int
	restartErr  error
}

func newFakeCluster() *fakeCluster {
	return &fakeCluster{
		links: transport.NewLinkSet(transport.LinkProps{}),
		cores: map[string]int{"p1": 4, "p2": 4, "p3": 4, "p4": 4},
	}
}

func (f *fakeCluster) Peers() []string    { return []string{"p1", "p2", "p3", "p4"} }
func (f *fakeCluster) Orderers() []string { return []string{"osn1"} }
func (f *fakeCluster) Orgs() []string     { return []string{"Org1", "Org2"} }
func (f *fakeCluster) OrgOf(node string) string {
	switch node {
	case "p1", "p2":
		return "Org1"
	case "p3", "p4":
		return "Org2"
	}
	return ""
}
func (f *fakeCluster) OrgPeers(org string) []string {
	if org == "Org1" {
		return []string{"p1", "p2"}
	}
	return []string{"p3", "p4"}
}
func (f *fakeCluster) Links() *transport.LinkSet { return f.links }
func (f *fakeCluster) RestartPeer(_ context.Context, id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.restarts = append(f.restarts, id)
	return f.restartErr
}
func (f *fakeCluster) RestartOrderer(_ context.Context, id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.osnRestarts = append(f.osnRestarts, id)
	return f.restartErr
}
func (f *fakeCluster) ThrottleCPU(id string, cores int) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	prev, ok := f.cores[id]
	if !ok {
		return 0, errors.New("no such node")
	}
	f.cores[id] = cores
	return prev, nil
}

func TestScheduleDeterminism(t *testing.T) {
	ctl := New(newFakeCluster())
	cfg := ScheduleConfig{Duration: 8 * time.Second, Faults: 6}

	a, err := ctl.BuildSchedule(99, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctl.BuildSchedule(99, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Timeline(), b.Timeline()) {
		t.Fatalf("same seed, different timelines:\n%v\n%v", a.Timeline(), b.Timeline())
	}

	c, err := ctl.BuildSchedule(100, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Timeline(), c.Timeline()) {
		t.Fatal("different seeds produced identical timelines")
	}

	// Faults >= len(Kinds) guarantees full taxonomy coverage.
	want := []string{KindCrash, KindDegrade, KindPartition, KindThrottle}
	got := a.Kinds()
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}

	// Windows are disjoint and inside the soak.
	events := append([]Event(nil), a.Events...)
	sort.Slice(events, func(i, j int) bool { return events[i].At < events[j].At })
	for i, ev := range events {
		if ev.At <= 0 || ev.At+ev.For >= cfg.Duration {
			t.Errorf("event %d window [%v,%v] outside soak", i, ev.At, ev.At+ev.For)
		}
		if i > 0 && events[i-1].At+events[i-1].For > ev.At {
			t.Errorf("event %d overlaps previous", i)
		}
	}
}

func TestScheduleProtectsNodes(t *testing.T) {
	ctl := New(newFakeCluster())
	for seed := int64(0); seed < 20; seed++ {
		s, err := ctl.BuildSchedule(seed, ScheduleConfig{
			Faults:    8,
			Protected: []string{"p1", "p2", "p3"},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range s.Events {
			k := ev.Fault.Kind()
			if k != KindCrash && k != KindThrottle {
				continue
			}
			name := ev.Fault.Name()
			for _, prot := range []string{"p1", "p2", "p3"} {
				if strings.Contains(name, "("+prot+")") || strings.Contains(name, "("+prot+",") {
					t.Fatalf("seed %d: protected node in %s", seed, name)
				}
			}
		}
	}
}

func TestControllerInjectHealLifecycle(t *testing.T) {
	fc := newFakeCluster()
	ctl := New(fc)
	ctx := context.Background()

	crash := CrashPeer{Node: "p4"}
	if err := ctl.Inject(ctx, crash); err != nil {
		t.Fatal(err)
	}
	if !fc.links.Isolated("p4") {
		t.Fatal("inject did not down the node")
	}
	part := PartitionOrg(fc, "Org1")
	if err := ctl.Inject(ctx, part); err != nil {
		t.Fatal(err)
	}
	if got := ctl.Active(); len(got) != 2 {
		t.Fatalf("active = %v", got)
	}
	if !fc.links.Severed("p1", "p3") || fc.links.Severed("p1", "p2") {
		t.Fatal("partition cut the wrong links")
	}

	// HealAll undoes in reverse order and restarts the crashed peer.
	if err := ctl.HealAll(ctx); err != nil {
		t.Fatal(err)
	}
	if fc.links.Isolated("p4") || fc.links.Severed("p1", "p3") {
		t.Fatal("heal left faults applied")
	}
	if !reflect.DeepEqual(fc.restarts, []string{"p4"}) {
		t.Fatalf("restarts = %v", fc.restarts)
	}
	if got := ctl.Active(); len(got) != 0 {
		t.Fatalf("active after HealAll = %v", got)
	}
	log := ctl.Log()
	if len(log) != 4 {
		t.Fatalf("log has %d entries, want 4: %v", len(log), log)
	}
	// Healing a slice-carrying fault matches active entries by name —
	// interface == on uncomparable types would panic — and healing an
	// inactive fault is idempotent bookkeeping, not an error.
	if err := ctl.Heal(ctx, PartitionOrg(fc, "Org1")); err != nil {
		t.Fatalf("idempotent heal: %v", err)
	}
}

func TestThrottleRestoresPreviousCores(t *testing.T) {
	fc := newFakeCluster()
	ctl := New(fc)
	ctx := context.Background()

	th := NewThrottle("p2", 1)
	if err := ctl.Inject(ctx, th); err != nil {
		t.Fatal(err)
	}
	if fc.cores["p2"] != 1 {
		t.Fatalf("cores during throttle = %d", fc.cores["p2"])
	}
	if err := ctl.Heal(ctx, th); err != nil {
		t.Fatal(err)
	}
	if fc.cores["p2"] != 4 {
		t.Fatalf("cores after heal = %d, want 4 restored", fc.cores["p2"])
	}
}

func TestRunExecutesScheduleAndHeals(t *testing.T) {
	fc := newFakeCluster()
	ctl := New(fc)
	s := Schedule{
		Seed: 1,
		Events: []Event{
			{At: 10 * time.Millisecond, For: 30 * time.Millisecond, Fault: CrashPeer{Node: "p1"}},
			{At: 60 * time.Millisecond, For: 30 * time.Millisecond, Fault: PartitionOrg(fc, "Org2")},
		},
	}
	if err := ctl.Run(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if got := ctl.Active(); len(got) != 0 {
		t.Fatalf("active after run = %v", got)
	}
	if !reflect.DeepEqual(fc.restarts, []string{"p1"}) {
		t.Fatalf("restarts = %v", fc.restarts)
	}
	log := ctl.Log()
	if len(log) != 4 {
		t.Fatalf("log = %v", log)
	}
	for _, e := range log {
		if e.Err != "" {
			t.Errorf("log entry error: %s", e)
		}
	}
}

func TestCrashOrdererLifecycle(t *testing.T) {
	fc := newFakeCluster()
	ctl := New(fc)
	ctx := context.Background()

	crash := CrashOrderer{Node: "osn1"}
	if crash.Kind() != KindOrdererCrash {
		t.Fatalf("kind = %q", crash.Kind())
	}
	if err := ctl.Inject(ctx, crash); err != nil {
		t.Fatal(err)
	}
	if !fc.links.Isolated("osn1") {
		t.Fatal("inject did not black out the orderer")
	}
	if err := ctl.Heal(ctx, crash); err != nil {
		t.Fatal(err)
	}
	if fc.links.Isolated("osn1") {
		t.Fatal("heal left the orderer down")
	}
	if !reflect.DeepEqual(fc.osnRestarts, []string{"osn1"}) {
		t.Fatalf("orderer restarts = %v", fc.osnRestarts)
	}
}

func TestScheduleIncludesOrdererCrash(t *testing.T) {
	fc := newFakeCluster()
	ctl := New(fc)
	kinds := []string{KindOrdererCrash, KindCrash}
	s, err := ctl.BuildSchedule(7, ScheduleConfig{
		Duration: 10 * time.Second,
		Faults:   4,
		Kinds:    kinds,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, ev := range s.Events {
		if ev.Fault.Kind() == KindOrdererCrash {
			found++
			if co, ok := ev.Fault.(CrashOrderer); !ok || co.Node != "osn1" {
				t.Fatalf("orderer-crash fault = %#v", ev.Fault)
			}
		}
	}
	if found != 2 {
		t.Fatalf("schedule has %d orderer crashes, want 2: %v", found, s.Timeline())
	}

	// A protected orderer leaves the kind with no target: it degrades.
	s2, err := ctl.BuildSchedule(7, ScheduleConfig{
		Duration:  10 * time.Second,
		Faults:    2,
		Kinds:     []string{KindOrdererCrash},
		Protected: []string{"osn1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range s2.Events {
		if ev.Fault.Kind() == KindOrdererCrash {
			t.Fatalf("protected orderer still targeted: %v", s2.Timeline())
		}
	}
}
