package statedb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"fabricsim/internal/types"
	"fabricsim/internal/wal"
)

func v(b, t uint64) types.Version { return types.Version{BlockNum: b, TxNum: t} }

// withBackends runs fn once per registered backend; open builds a fresh
// store for that backend (file backends in a temp dir).
func withBackends(t *testing.T, fn func(t *testing.T, open func(t *testing.T) Store)) {
	for _, backend := range Backends() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			open := func(t *testing.T) Store {
				s, err := Open(backend, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Close)
				return s
			}
			fn(t, open)
		})
	}
}

func TestGetPutDelete(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) Store) {
		db := open(t)
		batch := NewUpdateBatch()
		batch.Put("cc", "k1", []byte("v1"), v(1, 0))
		batch.Put("cc", "k2", []byte("v2"), v(1, 1))
		if err := db.ApplyUpdates(batch, v(1, 2)); err != nil {
			t.Fatal(err)
		}

		vv, ok, err := db.Get("cc", "k1")
		if err != nil || !ok || string(vv.Value) != "v1" || vv.Version != v(1, 0) {
			t.Errorf("Get k1 = %+v ok=%v err=%v", vv, ok, err)
		}
		if _, ok, _ := db.Get("cc", "missing"); ok {
			t.Error("missing key found")
		}
		if _, ok, _ := db.Get("other", "k1"); ok {
			t.Error("namespace leak")
		}

		del := NewUpdateBatch()
		del.Delete("cc", "k1", v(2, 0))
		if err := db.ApplyUpdates(del, v(2, 1)); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := db.Get("cc", "k1"); ok {
			t.Error("deleted key still present")
		}
	})
}

func TestVersionTracking(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) Store) {
		db := open(t)
		b1 := NewUpdateBatch()
		b1.Put("cc", "k", []byte("a"), v(1, 0))
		_ = db.ApplyUpdates(b1, v(1, 1))
		b2 := NewUpdateBatch()
		b2.Put("cc", "k", []byte("b"), v(2, 3))
		_ = db.ApplyUpdates(b2, v(2, 4))

		ver, ok, err := db.Version("cc", "k")
		if err != nil || !ok || ver != v(2, 3) {
			t.Errorf("Version = %v ok=%v err=%v", ver, ok, err)
		}
	})
}

func TestMonotonicHeights(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) Store) {
		db := open(t)
		b := NewUpdateBatch()
		b.Put("cc", "k", []byte("a"), v(5, 0))
		if err := db.ApplyUpdates(b, v(5, 1)); err != nil {
			t.Fatal(err)
		}
		if err := db.ApplyUpdates(NewUpdateBatch(), v(5, 1)); err == nil {
			t.Error("replayed height accepted")
		}
		if err := db.ApplyUpdates(NewUpdateBatch(), v(4, 0)); err == nil {
			t.Error("regressing height accepted")
		}
		if db.Height() != v(5, 1) {
			t.Errorf("Height = %v", db.Height())
		}
	})
}

func TestGetRange(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) Store) {
		db := open(t)
		batch := NewUpdateBatch()
		for i := 0; i < 10; i++ {
			batch.Put("cc", fmt.Sprintf("key%02d", i), []byte{byte(i)}, v(1, uint64(i)))
		}
		_ = db.ApplyUpdates(batch, v(1, 10))

		kvs, err := db.GetRange("cc", "key03", "key07", 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) != 4 {
			t.Fatalf("range returned %d keys", len(kvs))
		}
		for i, kv := range kvs {
			want := fmt.Sprintf("key%02d", i+3)
			if kv.Key != want {
				t.Errorf("kvs[%d].Key = %s, want %s", i, kv.Key, want)
			}
		}

		all, _ := db.GetRange("cc", "", "", 0)
		if len(all) != 10 {
			t.Errorf("open range returned %d", len(all))
		}
		limited, _ := db.GetRange("cc", "", "", 3)
		if len(limited) != 3 {
			t.Errorf("limited range returned %d", len(limited))
		}
	})
}

func TestBatchPutThenDeleteSameKey(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) Store) {
		db := open(t)
		batch := NewUpdateBatch()
		batch.Put("cc", "k", []byte("x"), v(1, 0))
		batch.Delete("cc", "k", v(1, 1))
		_ = db.ApplyUpdates(batch, v(1, 2))
		if _, ok, _ := db.Get("cc", "k"); ok {
			t.Error("delete after put in same batch did not win")
		}

		batch2 := NewUpdateBatch()
		batch2.Delete("cc", "j", v(2, 0))
		batch2.Put("cc", "j", []byte("y"), v(2, 1))
		_ = db.ApplyUpdates(batch2, v(2, 2))
		if _, ok, _ := db.Get("cc", "j"); !ok {
			t.Error("put after delete in same batch did not win")
		}
	})
}

func TestReturnedValueIsCopy(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) Store) {
		db := open(t)
		batch := NewUpdateBatch()
		batch.Put("cc", "k", []byte("abc"), v(1, 0))
		_ = db.ApplyUpdates(batch, v(1, 1))
		vv, _, _ := db.Get("cc", "k")
		vv.Value[0] = 'X'
		again, _, _ := db.Get("cc", "k")
		if string(again.Value) != "abc" {
			t.Error("mutation through returned slice leaked into the store")
		}
	})
}

func TestClosed(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) Store) {
		db := open(t)
		db.Close()
		if _, _, err := db.Get("cc", "k"); err != ErrClosed {
			t.Errorf("Get after close: %v", err)
		}
		if err := db.ApplyUpdates(NewUpdateBatch(), v(1, 0)); err != ErrClosed {
			t.Errorf("ApplyUpdates after close: %v", err)
		}
	})
}

// Property: after applying a batch, every put key returns its value and
// version, and every deleted key is absent.
func TestApplyUpdatesProperty(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) Store) {
		f := func(puts map[string][]byte, dels []string) bool {
			db := open(t)
			batch := NewUpdateBatch()
			i := uint64(0)
			for k, val := range puts {
				batch.Put("cc", k, val, v(1, i))
				i++
			}
			for _, k := range dels {
				if _, isPut := puts[k]; !isPut {
					batch.Delete("cc", k, v(1, i))
					i++
				}
			}
			if err := db.ApplyUpdates(batch, v(1, i+1)); err != nil {
				return false
			}
			for k, val := range puts {
				vv, ok, err := db.Get("cc", k)
				if err != nil || !ok || string(vv.Value) != string(val) {
					return false
				}
			}
			for _, k := range dels {
				if _, isPut := puts[k]; isPut {
					continue
				}
				if _, ok, _ := db.Get("cc", k); ok {
					return false
				}
			}
			return db.KeyCount("cc") == len(puts)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Error(err)
		}
	})
}

func TestNamespaces(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) Store) {
		db := open(t)
		b := NewUpdateBatch()
		b.Put("b-ns", "k", []byte("1"), v(1, 0))
		b.Put("a-ns", "k", []byte("2"), v(1, 1))
		_ = db.ApplyUpdates(b, v(1, 2))
		ns := db.Namespaces()
		if len(ns) != 2 || ns[0] != "a-ns" || ns[1] != "b-ns" {
			t.Errorf("Namespaces = %v", ns)
		}
	})
}

// TestGetVersionedZeroCopyView checks the split read API: GetVersioned
// returns a view aliasing the committed bytes (no per-read allocation),
// while Get keeps returning a private copy external callers may
// scribble on without corrupting committed state. Both backends must
// honor it — the file backend serves reads from its resident map.
func TestGetVersionedZeroCopyView(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) Store) {
		db := open(t)
		b := NewUpdateBatch()
		b.Put("cc", "k", []byte("value"), v(1, 0))
		if err := db.ApplyUpdates(b, v(1, 1)); err != nil {
			t.Fatal(err)
		}

		// Two views share one backing array: the read is zero-copy.
		v1, ok, err := db.GetVersioned("cc", "k")
		if err != nil || !ok {
			t.Fatalf("GetVersioned: ok=%v err=%v", ok, err)
		}
		v2, _, _ := db.GetVersioned("cc", "k")
		if &v1.Value[0] != &v2.Value[0] {
			t.Error("GetVersioned copied the value")
		}

		// Get returns a fresh copy every time; mutating it must not reach
		// committed state (or the view).
		g1, ok, err := db.Get("cc", "k")
		if err != nil || !ok {
			t.Fatalf("Get: ok=%v err=%v", ok, err)
		}
		if &g1.Value[0] == &v1.Value[0] {
			t.Fatal("Get aliases committed state")
		}
		g1.Value[0] = 'X'
		after, _, _ := db.Get("cc", "k")
		if string(after.Value) != "value" {
			t.Errorf("committed state mutated through Get copy: %q", after.Value)
		}
		if string(v1.Value) != "value" {
			t.Errorf("view mutated through Get copy: %q", v1.Value)
		}

		// A later commit of the same key replaces the entry; the old view
		// stays stable (ApplyUpdates copies on write, never in place).
		b2 := NewUpdateBatch()
		b2.Put("cc", "k", []byte("other"), v(2, 0))
		if err := db.ApplyUpdates(b2, v(2, 1)); err != nil {
			t.Fatal(err)
		}
		if string(v1.Value) != "value" {
			t.Errorf("old view changed by a later commit: %q", v1.Value)
		}
		// The batch's value buffer is also private to the DB.
		b3 := NewUpdateBatch()
		buf := []byte("third")
		b3.Put("cc", "k", buf, v(3, 0))
		if err := db.ApplyUpdates(b3, v(3, 1)); err != nil {
			t.Fatal(err)
		}
		buf[0] = 'Z'
		cur, _, _ := db.GetVersioned("cc", "k")
		if string(cur.Value) != "third" {
			t.Errorf("committed state aliases the batch buffer: %q", cur.Value)
		}

		// Missing keys and closed databases behave like Get.
		if _, ok, err := db.GetVersioned("cc", "absent"); ok || err != nil {
			t.Errorf("absent key: ok=%v err=%v", ok, err)
		}
		db.Close()
		if _, _, err := db.GetVersioned("cc", "k"); err == nil {
			t.Error("closed database served a view")
		}
	})
}

func TestRestore(t *testing.T) {
	withBackends(t, func(t *testing.T, open func(t *testing.T) Store) {
		db := open(t)
		b := NewUpdateBatch()
		b.Put("cc", "old", []byte("gone"), v(1, 0))
		_ = db.ApplyUpdates(b, v(1, 1))
		entries := []NSKV{
			{NS: "cc", KV: KV{Key: "a", VersionedValue: VersionedValue{Value: []byte("1"), Version: v(7, 0)}}},
			{NS: "dd", KV: KV{Key: "b", VersionedValue: VersionedValue{Value: []byte("2"), Version: v(7, 1)}}},
		}
		if err := db.Restore(entries, v(7, 2)); err != nil {
			t.Fatal(err)
		}
		if _, ok, _ := db.Get("cc", "old"); ok {
			t.Error("Restore kept pre-existing key")
		}
		vv, ok, _ := db.Get("dd", "b")
		if !ok || string(vv.Value) != "2" || vv.Version != v(7, 1) {
			t.Errorf("restored key = %+v ok=%v", vv, ok)
		}
		if db.Height() != v(7, 2) {
			t.Errorf("Height = %v", db.Height())
		}
	})
}

func TestHashEqualAcrossBackends(t *testing.T) {
	var hashes [][]byte
	for _, backend := range Backends() {
		db, err := Open(backend, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		b := NewUpdateBatch()
		b.Put("cc", "k1", []byte("v1"), v(1, 0))
		b.Put("aa", "k2", []byte("v2"), v(1, 1))
		_ = db.ApplyUpdates(b, v(1, 2))
		h, err := Hash(db)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
		db.Close()
	}
	for i := 1; i < len(hashes); i++ {
		if !bytes.Equal(hashes[0], hashes[i]) {
			t.Errorf("state hash differs between backends %q and %q", Backends()[0], Backends()[i])
		}
	}
}

// rewriteBatch puts keys in namespace "cc" at block num, all with one
// eight-byte value.
func rewriteBatch(keys []string, num uint64) *UpdateBatch {
	b := NewUpdateBatch()
	value := []byte("value-00")
	for i, k := range keys {
		b.Put("cc", k, value, v(num, uint64(i)))
	}
	return b
}

func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%04d", i)
	}
	return keys
}

// TestApplyUpdatesAllocs pins the value-held batch and the block
// arena. Rewriting N keys the database holds costs N allocations, one
// value copy each; the pointer-valued batch cost 2N in ApplyUpdates (64
// for N = 32). Putting N new keys into an empty database costs N value
// copies, one key string and one entry slab, plus the namespace's name
// and map (40 for N = 32); a key copy and an entry per key cost 102.
// Putting a key the batch holds already costs nothing; the
// pointer-valued batch allocated a fresh entry on every Put.
func TestApplyUpdatesAllocs(t *testing.T) {
	const n = 32
	keys := benchKeys(n)
	db := New()
	batch := rewriteBatch(keys, 1)
	if err := db.ApplyUpdates(batch, v(1, n)); err != nil {
		t.Fatal(err)
	}
	num := uint64(1)
	allocs := testing.AllocsPerRun(50, func() {
		num++
		if err := db.ApplyUpdates(batch, v(num, n)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != n {
		t.Errorf("ApplyUpdates rewriting %d keys: %.0f allocations, want %d", n, allocs, n)
	}
	const runs = 50
	empty := make([]*DB, runs+1) // AllocsPerRun makes one warm-up call
	for i := range empty {
		empty[i] = New()
	}
	next := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		if err := empty[next].ApplyUpdates(batch, v(num, n)); err != nil {
			t.Fatal(err)
		}
		next++
	}); allocs != 40 {
		t.Errorf("ApplyUpdates putting %d new keys: %.0f allocations, want 40", n, allocs)
	}
	value := []byte("value-01")
	if allocs := testing.AllocsPerRun(50, func() {
		for i, k := range keys {
			batch.Put("cc", k, value, v(num, uint64(i)))
		}
	}); allocs != 0 {
		t.Errorf("re-putting %d batched keys: %.0f allocations, want 0", n, allocs)
	}
}

// BenchmarkApplyUpdates times one block's state apply on the mem
// backend: a 100-key batch built and applied over a database that
// already holds every key.
func BenchmarkApplyUpdates(b *testing.B) {
	keys := benchKeys(100)
	db := New()
	if err := db.ApplyUpdates(rewriteBatch(keys, 1), v(1, 100)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		num := uint64(i + 2)
		if err := db.ApplyUpdates(rewriteBatch(keys, num), v(num, 100)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyUpdatesFresh times one block's state apply on the mem
// backend when every key is new: a 100-key batch of keys the database
// does not hold, built and applied. Every 100 blocks the keys repeat
// over a fresh database (made off the clock), so the database stays
// under 10 000 keys however long the benchmark runs.
func BenchmarkApplyUpdatesFresh(b *testing.B) {
	const perBlock, blocks = 100, 100
	keys := benchKeys(perBlock * blocks)
	var db *DB
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%blocks == 0 {
			b.StopTimer()
			db = New()
			b.StartTimer()
		}
		num, block := uint64(i+1), i%blocks
		batch := rewriteBatch(keys[block*perBlock:(block+1)*perBlock], num)
		if err := db.ApplyUpdates(batch, v(num, perBlock)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- file-backend specifics ---

// TestFileReopenReplaysWAL: every acknowledged batch survives a close
// and reopen via the write-ahead log, without any explicit flush.
func TestFileReopenReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		b := NewUpdateBatch()
		b.Put("cc", fmt.Sprintf("k%d", i), []byte{byte(i)}, v(i, 0))
		if i == 3 {
			b.Delete("cc", "k1", v(i, 1))
		}
		if err := db.ApplyUpdates(b, v(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := Hash(db)
	db.Close()

	r, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, _ := Hash(r)
	if !bytes.Equal(got, want) {
		t.Fatalf("state hash differs after reopen:\n%s", r.DumpString())
	}
	if _, ok, _ := r.Get("cc", "k1"); ok {
		t.Error("deleted key resurrected by WAL replay")
	}
	if r.Height() != v(5, 2) {
		t.Errorf("Height = %v", r.Height())
	}
}

// logRecords counts the records of the state log in dir.
func logRecords(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	l, err := wal.Open(filepath.Join(dir, logName), func(int64, []byte) error {
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return n
}

// TestFileFlushFoldsWAL: Flush rewrites the log as its one snapshot
// record, and later batches land after it.
func TestFileFlushFoldsWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := NewUpdateBatch()
	b.Put("cc", "k", []byte("x"), v(1, 0))
	_ = db.ApplyUpdates(b, v(1, 1))
	if n := logRecords(t, dir); n != 2 {
		t.Errorf("log holds %d records before flush, want snapshot + batch", n)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := logRecords(t, dir); n != 1 {
		t.Errorf("log holds %d records after flush, want the snapshot alone", n)
	}
	b2 := NewUpdateBatch()
	b2.Put("cc", "k2", []byte("y"), v(2, 0))
	_ = db.ApplyUpdates(b2, v(2, 1))
	want, _ := Hash(db)
	db.Close()

	r, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, _ := Hash(r)
	if !bytes.Equal(got, want) {
		t.Error("snapshot+WAL reopen differs from pre-close state")
	}
}

// TestFileTornWALTruncated: a torn trailing record (crash mid-append)
// is dropped; every fully written batch survives.
func TestFileTornWALTruncated(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := NewUpdateBatch()
	b.Put("cc", "k", []byte("x"), v(1, 0))
	_ = db.ApplyUpdates(b, v(1, 1))
	db.Close()

	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A record claiming 200 payload bytes but holding 2.
	f.Write([]byte{200, 1, 0xde, 0xad})
	f.Close()

	r, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if vv, ok, _ := r.Get("cc", "k"); !ok || string(vv.Value) != "x" {
		t.Errorf("complete record lost: %+v ok=%v", vv, ok)
	}
	// The torn bytes were truncated, so appending keeps working.
	b2 := NewUpdateBatch()
	b2.Put("cc", "k2", []byte("y"), v(2, 0))
	if err := r.ApplyUpdates(b2, v(2, 1)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok, _ := r2.Get("cc", "k2"); !ok {
		t.Error("post-truncation append lost")
	}
}

// TestFileCorruptSnapshotStartsOver: a log whose snapshot record does
// not decode opens empty and starts again from a fresh snapshot, so the
// next batch is not taken for record 0 on a later open.
func TestFileCorruptSnapshotStartsOver(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), []byte{2, 0xff, 0xff}, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if db.Height() != (types.Version{}) || len(db.Namespaces()) != 0 {
		t.Fatalf("corrupt snapshot opened at %v with %v", db.Height(), db.Namespaces())
	}
	b := NewUpdateBatch()
	b.Put("cc", "k", []byte("x"), v(1, 0))
	if err := db.ApplyUpdates(b, v(1, 1)); err != nil {
		t.Fatal(err)
	}
	db.Close()
	r, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if vv, ok, _ := r.Get("cc", "k"); !ok || string(vv.Value) != "x" {
		t.Errorf("batch after a corrupt snapshot lost on reopen: %+v ok=%v", vv, ok)
	}
}

// TestFileFlushAfterCrashMidRewrite: a crash between writing the
// flushed temp file and renaming it leaves state.log intact beside a
// stale state.log.tmp. The store reopens to the pre-flush state and the
// next Flush succeeds.
func TestFileFlushAfterCrashMidRewrite(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		b := NewUpdateBatch()
		b.Put("cc", fmt.Sprintf("k%d", i), []byte{byte(i)}, v(i, 0))
		if err := db.ApplyUpdates(b, v(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := Hash(db)
	db.Close()
	if err := os.WriteFile(filepath.Join(dir, logName+".tmp"), []byte{9, 1, 2}, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, _ := Hash(r); !bytes.Equal(got, want) {
		t.Fatalf("reopened state differs:\n%s", r.DumpString())
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := logRecords(t, dir); n != 1 {
		t.Errorf("log holds %d records after flush, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, logName+".tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale temp file survived Flush: %v", err)
	}
}

// FuzzOpenFile opens arbitrary bytes as state.log. The store may open
// or refuse, but must not panic or allocate 1 MiB for the input. The
// seeds in testdata/fuzz are logs a store really wrote.
func FuzzOpenFile(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), b, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		db, err := OpenFile(dir)
		runtime.ReadMemStats(&after)
		if err == nil {
			db.Close()
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Fatalf("opening %d bytes allocated %d bytes", len(b), n)
		}
	})
}
