package statedb

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fabricsim/internal/types"
)

// refUpdateBatch, its Put and Delete, refApplyUpdates and
// refMarshalWALRecord are the pointer-valued batch and the apply and
// log encoding it replaced, kept verbatim as the oracle the value-held
// batch is diffed against.
type refUpdateBatch struct {
	updates map[string]map[string]*VersionedValue // ns -> key -> value (nil Value+IsDelete => delete)
	deletes map[string]map[string]types.Version   // ns -> key -> deleting version
}

func newRefUpdateBatch() *refUpdateBatch {
	return &refUpdateBatch{
		updates: make(map[string]map[string]*VersionedValue),
		deletes: make(map[string]map[string]types.Version),
	}
}

func (b *refUpdateBatch) Put(ns, key string, value []byte, v types.Version) {
	m, ok := b.updates[ns]
	if !ok {
		m = make(map[string]*VersionedValue)
		b.updates[ns] = m
	}
	m[key] = &VersionedValue{Value: value, Version: v}
	if dm, ok := b.deletes[ns]; ok {
		delete(dm, key)
	}
}

func (b *refUpdateBatch) Delete(ns, key string, v types.Version) {
	dm, ok := b.deletes[ns]
	if !ok {
		dm = make(map[string]types.Version)
		b.deletes[ns] = dm
	}
	dm[key] = v
	if m, ok := b.updates[ns]; ok {
		delete(m, key)
	}
}

func refApplyUpdates(db *DB, batch *refUpdateBatch, height types.Version) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if height.Compare(db.height) <= 0 && (db.height != types.Version{}) {
		return fmt.Errorf("statedb: non-monotonic commit height %v after %v", height, db.height)
	}
	for ns, m := range batch.updates {
		target, ok := db.data[ns]
		if !ok {
			target = make(map[string]*VersionedValue, len(m))
			db.data[strings.Clone(ns)] = target
		}
		for k, vv := range m {
			update := VersionedValue{Value: append([]byte(nil), vv.Value...), Version: vv.Version}
			if cur, ok := target[k]; ok {
				*cur = update
			} else {
				target[strings.Clone(k)] = &update
			}
		}
	}
	for ns, dm := range batch.deletes {
		target, ok := db.data[ns]
		if !ok {
			continue
		}
		for k := range dm {
			delete(target, k)
		}
	}
	db.height = height
	return nil
}

func refMarshalWALRecord(batch *refUpdateBatch, height types.Version) []byte {
	enc := types.NewEncoder(256)
	enc.Uvarint(height.BlockNum)
	enc.Uvarint(height.TxNum)
	nss := make([]string, 0, len(batch.updates))
	for ns := range batch.updates {
		nss = append(nss, ns)
	}
	sort.Strings(nss)
	var nPuts uint64
	for _, ns := range nss {
		nPuts += uint64(len(batch.updates[ns]))
	}
	enc.Uvarint(nPuts)
	for _, ns := range nss {
		m := batch.updates[ns]
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			vv := m[k]
			enc.String(ns)
			enc.String(k)
			enc.Bytes2(vv.Value)
			enc.Uvarint(vv.Version.BlockNum)
			enc.Uvarint(vv.Version.TxNum)
		}
	}
	dss := make([]string, 0, len(batch.deletes))
	for ns := range batch.deletes {
		dss = append(dss, ns)
	}
	sort.Strings(dss)
	var nDels uint64
	for _, ns := range dss {
		nDels += uint64(len(batch.deletes[ns]))
	}
	enc.Uvarint(nDels)
	for _, ns := range dss {
		dm := batch.deletes[ns]
		keys := make([]string, 0, len(dm))
		for k := range dm {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			v := dm[k]
			enc.String(ns)
			enc.String(k)
			enc.Uvarint(v.BlockNum)
			enc.Uvarint(v.TxNum)
		}
	}
	return enc.Bytes()
}

// TestUpdateBatchMatchesReference applies 10 000 seeded batch sequences
// to the reference on the mem backend and to UpdateBatch on both
// backends. The batches Put, Delete and Put again over six keys in two
// namespaces at rising heights, and values are sometimes nil or empty.
// A third of the keys a batch touches are new ones of varied length, so
// one batch mixes keys no earlier batch wrote with rewrites, deletes and
// re-puts of deleted keys, and later batches rewrite and delete the new
// keys in turn. After every batch the three stores must dump and hash
// alike, and the state log record must be the reference's byte for
// byte, so logs the reference wrote still replay. They must still match
// once every value the batch was given is overwritten, so no store keeps
// a caller's bytes. Each file store is reopened at the end and must
// replay to the same state.
func TestUpdateBatchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	nss := []string{"cc", "bank"}
	root := t.TempDir()
	for seq := 0; seq < 10000; seq++ {
		keys := []string{"a", "b", "c", "d", "e", "f"}
		dir := filepath.Join(root, fmt.Sprint(seq))
		file, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		mem, ref := New(), New()
		stores := []Store{mem, file}
		height := types.Version{}
		for nb := 1 + rng.Intn(5); nb > 0; nb-- {
			height = types.Version{BlockNum: height.BlockNum + 1 + uint64(rng.Intn(3)), TxNum: uint64(rng.Intn(50))}
			batch, want := NewUpdateBatch(), newRefUpdateBatch()
			var given [][]byte
			for op := rng.Intn(12); op > 0; op-- {
				ns, k := nss[rng.Intn(len(nss))], keys[rng.Intn(len(keys))]
				if rng.Intn(3) == 0 {
					k = fmt.Sprintf("n%d%s", len(keys), strings.Repeat("x", rng.Intn(4)))
					keys = append(keys, k)
				}
				ver := types.Version{BlockNum: height.BlockNum, TxNum: uint64(rng.Intn(50))}
				if rng.Intn(3) == 0 {
					batch.Delete(ns, k, ver)
					want.Delete(ns, k, ver)
					continue
				}
				var val []byte
				switch rng.Intn(4) {
				case 0: // nil
				case 1:
					val = []byte{}
				default:
					val = []byte(fmt.Sprint(rng.Intn(1000)))
				}
				batch.Put(ns, k, val, ver)
				want.Put(ns, k, val, ver)
				given = append(given, val)
			}
			if got, wantRec := marshalWALRecord(batch, height), refMarshalWALRecord(want, height); !bytes.Equal(got, wantRec) {
				t.Fatalf("sequence %d at %v: log record %x, reference %x", seq, height, got, wantRec)
			}
			if err := refApplyUpdates(ref, want, height); err != nil {
				t.Fatal(err)
			}
			for _, s := range stores {
				if err := s.ApplyUpdates(batch, height); err != nil {
					t.Fatal(err)
				}
			}
			assertSameState(t, fmt.Sprintf("sequence %d at %v", seq, height), ref, stores...)
			for _, val := range given {
				for i := range val {
					val[i] = '#'
				}
			}
			assertSameState(t, fmt.Sprintf("sequence %d at %v, given values overwritten", seq, height), ref, stores...)
		}
		file.Close()
		reopened, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		assertSameState(t, fmt.Sprintf("sequence %d reopened", seq), ref, reopened)
		reopened.Close()
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}
}

// assertSameState fails unless every store dumps and hashes as want.
func assertSameState(t *testing.T, at string, want Store, stores ...Store) {
	t.Helper()
	wantHash, err := Hash(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stores {
		if got := s.DumpString(); got != want.DumpString() {
			t.Fatalf("%s: %T holds\n%s\nreference holds\n%s", at, s, got, want.DumpString())
		}
		if h, err := Hash(s); err != nil || !bytes.Equal(h, wantHash) {
			t.Fatalf("%s: %T hashes %x (%v), reference %x", at, s, h, err, wantHash)
		}
	}
}
