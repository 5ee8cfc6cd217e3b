package raft

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"fabricsim/internal/simtest"
	"fabricsim/internal/transport"
)

func entry(term, index uint64, data string) Entry {
	return Entry{Term: term, Index: index, Data: []byte(data)}
}

func checkState(t *testing.T, s Store, wantHS HardState, wantBase Entry, wantEntries ...Entry) {
	t.Helper()
	hs, base, entries, err := s.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if hs != wantHS {
		t.Errorf("hard state = %+v, want %+v", hs, wantHS)
	}
	if base.Index != wantBase.Index || base.Term != wantBase.Term {
		t.Errorf("base = %+v, want %+v", base, wantBase)
	}
	if len(entries) != len(wantEntries) {
		t.Fatalf("got %d entries, want %d", len(entries), len(wantEntries))
	}
	for i := range entries {
		w := wantEntries[i]
		if entries[i].Term != w.Term || entries[i].Index != w.Index || !bytes.Equal(entries[i].Data, w.Data) {
			t.Errorf("entry %d = %+v, want %+v", i, entries[i], w)
		}
	}
}

func TestMemStoreRoundtrip(t *testing.T) {
	s := NewMemStore()
	if err := s.SaveHardState(HardState{Term: 3, VotedFor: "n2"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEntries([]Entry{entry(1, 1, "a"), entry(2, 2, "b"), entry(3, 3, "c")}); err != nil {
		t.Fatal(err)
	}
	checkState(t, s, HardState{Term: 3, VotedFor: "n2"}, Entry{},
		entry(1, 1, "a"), entry(2, 2, "b"), entry(3, 3, "c"))

	// Conflicting append truncates the suffix from its first index.
	if err := s.AppendEntries([]Entry{entry(4, 2, "B")}); err != nil {
		t.Fatal(err)
	}
	checkState(t, s, HardState{Term: 3, VotedFor: "n2"}, Entry{},
		entry(1, 1, "a"), entry(4, 2, "B"))

	// Gapped append is rejected.
	if err := s.AppendEntries([]Entry{entry(4, 9, "z")}); err == nil {
		t.Error("gapped append accepted")
	}
}

func TestMemStoreCompact(t *testing.T) {
	s := NewMemStore()
	if err := s.AppendEntries([]Entry{entry(1, 1, "a"), entry(1, 2, "b"), entry(2, 3, "c")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(2, 1); err != nil {
		t.Fatal(err)
	}
	checkState(t, s, HardState{}, Entry{Term: 1, Index: 2}, entry(2, 3, "c"))

	// Appends below the new base are rejected.
	if err := s.AppendEntries([]Entry{entry(2, 2, "x")}); err == nil {
		t.Error("append below base accepted")
	}
	// Compacting backwards is a no-op.
	if err := s.Compact(1, 1); err != nil {
		t.Fatal(err)
	}
	checkState(t, s, HardState{}, Entry{Term: 1, Index: 2}, entry(2, 3, "c"))
}

func TestFileStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveHardState(HardState{Term: 1, VotedFor: "n1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEntries([]Entry{entry(1, 1, "a"), entry(1, 2, "b")}); err != nil {
		t.Fatal(err)
	}
	// Later hard state supersedes the earlier record.
	if err := s.SaveHardState(HardState{Term: 4, VotedFor: ""}); err != nil {
		t.Fatal(err)
	}
	// A conflicting entry record supersedes the stored suffix.
	if err := s.AppendEntries([]Entry{entry(4, 2, "B"), entry(4, 3, "c")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkState(t, r, HardState{Term: 4}, Entry{},
		entry(1, 1, "a"), entry(4, 2, "B"), entry(4, 3, "c"))
}

func TestFileStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveHardState(HardState{Term: 7, VotedFor: "n3"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEntries([]Entry{entry(7, 1, "a")}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-append: a record header promising more bytes
	// than the file holds.
	path := filepath.Join(dir, walName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(path)

	r, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkState(t, r, HardState{Term: 7, VotedFor: "n3"}, Entry{}, entry(7, 1, "a"))

	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Errorf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}

	// The truncated WAL accepts new appends cleanly.
	if err := r.AppendEntries([]Entry{entry(7, 2, "b")}); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreCompactReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveHardState(HardState{Term: 2, VotedFor: "n1"}); err != nil {
		t.Fatal(err)
	}
	var es []Entry
	for i := uint64(1); i <= 10; i++ {
		es = append(es, entry(2, i, "x"))
	}
	if err := s.AppendEntries(es); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(8, 2); err != nil {
		t.Fatal(err)
	}
	// Post-compaction appends land in the rewritten WAL.
	if err := s.AppendEntries([]Entry{entry(3, 11, "y")}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkState(t, r, HardState{Term: 2, VotedFor: "n1"}, Entry{Term: 2, Index: 8},
		entry(2, 9, "x"), entry(2, 10, "x"), entry(3, 11, "y"))
}

// TestFileStoreHugeLengthPrefix: a frame whose length prefix is 2^64-1
// is a torn tail like any other. The store opens empty, the file is
// truncated to nothing, and it reopens cleanly.
func TestFileStoreHugeLengthPrefix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walName)
	raw := append(binary.AppendUvarint(nil, math.MaxUint64), 1, 2, 3)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		s, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		checkState(t, s, HardState{}, Entry{})
		s.Close()
		if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
			t.Fatalf("open %d left %v, %v; want an empty file", i, fi.Size(), err)
		}
	}
}

// TestFileStoreCompactAfterCrashMidRewrite: a crash between writing
// the compacted temp file and renaming it leaves raft.wal intact beside
// a stale raft.wal.tmp. The store reopens to the pre-compaction log and
// the next Compact succeeds.
func TestFileStoreCompactAfterCrashMidRewrite(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveHardState(HardState{Term: 2, VotedFor: "n1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEntries([]Entry{entry(2, 1, "a"), entry(2, 2, "b"), entry(2, 3, "c")}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, walName)
	half := hardRecord(HardState{Term: 9})
	if err := os.WriteFile(path+".tmp", half[:2], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkState(t, r, HardState{Term: 2, VotedFor: "n1"}, Entry{},
		entry(2, 1, "a"), entry(2, 2, "b"), entry(2, 3, "c"))
	if err := r.Compact(2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale temp file survived Compact: %v", err)
	}
	r.Close()
	r, err = NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkState(t, r, HardState{Term: 2, VotedFor: "n1"}, Entry{Term: 2, Index: 2}, entry(2, 3, "c"))
}

// FuzzFileStoreOpen opens arbitrary bytes as raft.wal. The store may
// open or refuse, but must not panic or allocate 1 MiB for the input.
// The seeds in testdata/fuzz are logs a store really wrote.
func FuzzFileStoreOpen(f *testing.F) {
	f.Add(append(binary.AppendUvarint(nil, math.MaxUint64), 1, 2, 3))
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), b, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := NewFileStore(dir)
		runtime.ReadMemStats(&after)
		if err == nil {
			s.Close()
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Fatalf("opening %d bytes allocated %d bytes", len(b), n)
		}
	})
}

// TestFileStoreGolden pins the bytes of raft.wal: a fixed sequence of
// writes must leave a file with the same SHA-256 after every step, so
// the on-disk format (and the bytes a Raft consenter pays per entry)
// cannot drift unnoticed.
func TestFileStoreGolden(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	steps := []struct {
		name   string
		do     func() error
		digest string
	}{
		{"hard state", func() error { return s.SaveHardState(HardState{Term: 1, VotedFor: "n1"}) },
			"bb06da08da9ad5e98256a036b988e21fd64e00cbe1a0074b4d87b8d66f337b2c"},
		{"append", func() error {
			return s.AppendEntries([]Entry{entry(1, 1, "a"), entry(1, 2, "b"), entry(1, 3, "c"), entry(1, 4, "d")})
		}, "9ef5d314ced86df7e34c156912a14b72400c459dc79f3d96cf73fb2fb1fb2ea6"},
		{"overwrite", func() error { return s.AppendEntries([]Entry{entry(2, 3, "C"), entry(2, 4, "D")}) },
			"23dbe2be5d2a446a18e55648faf8db4e156f5f03f25888be8cf005bdbf9af31b"},
		{"second hard state", func() error { return s.SaveHardState(HardState{Term: 2, VotedFor: "n2"}) },
			"5b0c17650548356f91eaf617d82ec5f29a463d1230ea87ba23f8afe379670e07"},
		{"compact", func() error { return s.Compact(3, 2) },
			"bee1f83aed000d3daeeb0126d64462fd637d2d90b797c2e7e5ccf0636025245e"},
		{"append after compact", func() error { return s.AppendEntries([]Entry{entry(2, 5, "e"), entry(3, 6, "f")}) },
			"ef8329c0b094863e7a141191cce5424525663a8f7304909df71318fecbc6da04"},
	}
	for _, step := range steps {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != step.digest {
			t.Errorf("%s: raft.wal sha256 = %s, want %s", step.name, got, step.digest)
		}
	}
	s.Close()
	r, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkState(t, r, HardState{Term: 2, VotedFor: "n2"}, Entry{Term: 2, Index: 3},
		entry(2, 4, "D"), entry(2, 5, "e"), entry(3, 6, "f"))
}

// A restarted node must not grant a second vote in a term it already
// voted in, and must not regress its term — the classic split-vote /
// double-commit safety cases that volatile hard state would reopen.
func TestRestartNoDoubleVoteNoTermRegress(t *testing.T) {
	for _, backend := range []string{"mem", "file"} {
		t.Run(backend, func(t *testing.T) {
			net := transport.NewNetwork(transport.Config{TimeScale: 1.0, Latency: 100 * time.Microsecond})
			defer net.Close()
			var store Store
			dir := t.TempDir()
			if backend == "file" {
				fs, err := NewFileStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer fs.Close()
				store = fs
			} else {
				store = NewMemStore()
			}
			cfg := Config{
				ID:    "n1",
				Peers: []string{"n1", "n2", "n3"},
				// Long timeout: the node must not start its own election
				// and perturb the term mid-test.
				ElectionTimeout: time.Minute,
				Store:           store,
			}
			ep, err := net.Register("n1")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Endpoint = ep
			n, err := NewNode(cfg)
			if err != nil {
				t.Fatal(err)
			}

			vote := func(node *Node, term uint64, candidate string) bool {
				raw, _, err := node.handleVote(context.Background(), candidate, &VoteArgs{
					Term: term, CandidateID: candidate,
				})
				if err != nil {
					t.Fatal(err)
				}
				return raw.(*VoteReply).Granted
			}
			if !vote(n, 5, "c1") {
				t.Fatal("fresh node refused first vote")
			}
			n.Stop()

			net.Deregister("n1")
			ep, err = net.Register("n1")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Endpoint = ep
			if backend == "file" {
				fs, err := NewFileStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer fs.Close()
				cfg.Store = fs
			}
			n2, err := NewNode(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer n2.Stop()

			if _, term := n2.State(); term != 5 {
				t.Fatalf("restarted node at term %d, want 5 (no regress)", term)
			}
			if vote(n2, 5, "c2") {
				t.Fatal("restarted node granted a second vote in term 5")
			}
			// Re-granting the same candidate in the same term is legal.
			if !vote(n2, 5, "c1") {
				t.Error("restarted node refused to re-confirm its own vote")
			}
		})
	}
}

// A follower restarted from its persisted log rejoins with its entries
// intact and keeps committing without a full resync from index 1.
func TestRestartPreservesLog(t *testing.T) {
	c := newClusterWithStores(t, 3, func(string) Store { return NewMemStore() })
	leader := c.waitLeader(3 * time.Second)
	for i := 0; i < 5; i++ {
		if _, err := leader.Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var victim string
	for _, id := range c.peers {
		if id != leader.cfg.ID {
			victim = id
			break
		}
	}
	c.waitApplied(victim, 5, 5*time.Second)

	node := c.restart(victim)
	if node.LastIndex() != 5 {
		t.Fatalf("restarted follower last index = %d, want 5", node.LastIndex())
	}
	leader = c.waitLeader(3 * time.Second)
	if !simtest.Until(5*time.Second, func() bool {
		if _, err := leader.Propose([]byte("post")); err == nil {
			return true
		}
		leader = c.waitLeader(3 * time.Second)
		return false
	}) {
		t.Fatal("no leader accepted the post-restart proposal")
	}
	if !simtest.Until(5*time.Second, func() bool { return node.CommitIndex() >= 6 }) {
		t.Fatalf("restarted follower commit index = %d, want >= 6", node.CommitIndex())
	}
	if err := node.PersistErr(); err != nil {
		t.Fatal(err)
	}
}

// Compaction folds the applied prefix away, and a restart resumes from
// the compaction base instead of replaying from index 1.
func TestCompactionAndRestartFromBase(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewNetwork(transport.Config{TimeScale: 1.0, Latency: 100 * time.Microsecond})
	defer net.Close()
	newSolo := func() *Node {
		ep, err := net.Register("n1")
		if err != nil {
			t.Fatal(err)
		}
		fs, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(Config{
			ID:                "n1",
			Peers:             []string{"n1"},
			Endpoint:          ep,
			ElectionTimeout:   20 * time.Millisecond,
			HeartbeatInterval: 5 * time.Millisecond,
			Store:             fs,
			CompactThreshold:  8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	n := newSolo()
	if !simtest.Until(3*time.Second, func() bool { st, _ := n.State(); return st == Leader }) {
		t.Fatal("single node never became leader")
	}
	for i := 0; i < 30; i++ {
		if _, err := n.Propose([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !simtest.Until(5*time.Second, func() bool { return n.CompactionBase() != 0 }) {
		t.Fatal("log never compacted")
	}
	// Compaction can still be running: read what the restart must
	// recover only once the node has stopped.
	n.Stop()
	base, last := n.CompactionBase(), n.LastIndex()
	if _, ok := n.EntryAt(base); ok {
		t.Error("compacted entry still exposed")
	}
	if err := n.PersistErr(); err != nil {
		t.Fatal(err)
	}
	net.Deregister("n1")

	r := newSolo()
	defer r.Stop()
	if got := r.CompactionBase(); got != base {
		t.Errorf("restarted base = %d, want %d", got, base)
	}
	if got := r.LastIndex(); got != last {
		t.Errorf("restarted last index = %d, want %d", got, last)
	}
}
