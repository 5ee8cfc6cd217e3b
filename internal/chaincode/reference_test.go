package chaincode

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"fabricsim/internal/statedb"
	"fabricsim/internal/types"
)

// refSimulator is the map-based Simulator the sorted-slice one replaced,
// kept verbatim as the differential test's reference: writes buffer in
// a map and RWSet sorts its keys on every call.
type refSimulator struct {
	txID  types.TxID
	ns    string
	state statedb.Store

	rwset   types.RWSet
	writes  map[string]types.KVWrite // read-your-writes buffer
	readKey map[string]struct{}      // dedup reads of the same key
}

func newRefSimulator(txID types.TxID, ns string, state statedb.Store) *refSimulator {
	return &refSimulator{
		txID:    txID,
		ns:      ns,
		state:   state,
		writes:  make(map[string]types.KVWrite),
		readKey: make(map[string]struct{}),
	}
}

func (s *refSimulator) GetState(key string) ([]byte, error) {
	if w, ok := s.writes[key]; ok {
		if w.IsDelete {
			return nil, nil
		}
		return append([]byte(nil), w.Value...), nil
	}
	vv, exists, err := s.state.GetVersioned(s.ns, key)
	if err != nil {
		return nil, fmt.Errorf("chaincode %s get %q: %w", s.ns, key, err)
	}
	if _, seen := s.readKey[key]; !seen {
		s.readKey[key] = struct{}{}
		read := types.KVRead{Key: key, Exists: exists}
		if exists {
			read.Version = vv.Version
		}
		s.rwset.Reads = append(s.rwset.Reads, read)
	}
	if !exists {
		return nil, nil
	}
	return append([]byte(nil), vv.Value...), nil
}

func (s *refSimulator) PutState(key string, value []byte) error {
	w := types.KVWrite{Key: key, Value: append([]byte(nil), value...)}
	s.writes[key] = w
	return nil
}

func (s *refSimulator) DelState(key string) error {
	s.writes[key] = types.KVWrite{Key: key, IsDelete: true}
	return nil
}

func (s *refSimulator) GetStateRange(startKey, endKey string) ([]statedb.KV, error) {
	kvs, err := s.state.GetRange(s.ns, startKey, endKey, 0)
	if err != nil {
		return nil, fmt.Errorf("chaincode %s range [%q,%q): %w", s.ns, startKey, endKey, err)
	}
	for _, kv := range kvs {
		if _, seen := s.readKey[kv.Key]; !seen {
			s.readKey[kv.Key] = struct{}{}
			s.rwset.Reads = append(s.rwset.Reads, types.KVRead{Key: kv.Key, Version: kv.Version, Exists: true})
		}
	}
	return kvs, nil
}

func (s *refSimulator) RWSet() *types.RWSet {
	keys := make([]string, 0, len(s.writes))
	for k := range s.writes {
		keys = append(keys, k)
	}
	sortStrings(keys)
	s.rwset.Writes = s.rwset.Writes[:0]
	for _, k := range keys {
		s.rwset.Writes = append(s.rwset.Writes, s.writes[k])
	}
	return &s.rwset
}

// sameBytes is byte equality that also tells a nil result from an
// empty one, since a chaincode can observe the difference.
func sameBytes(a, b []byte) bool {
	return bytes.Equal(a, b) && (a == nil) == (b == nil)
}

// TestSimulatorMatchesReference drives the Simulator and the map-based
// reference through the same seeded op sequences over one shared state
// DB: every GetState and GetStateRange result, and the marshaled
// read-write set (sampled mid-sequence and at the end), must be
// byte-identical.
func TestSimulatorMatchesReference(t *testing.T) {
	const ns = "cc"
	keys := []string{"", "a", "a0", "b", "bb", "k1", "k2", "k3", "m", "z"}
	db := statedb.New()
	batch := statedb.NewUpdateBatch()
	for i, k := range keys {
		if i%3 == 2 {
			continue // leave some keys absent from committed state
		}
		batch.Put(ns, k, []byte("v-"+k), types.Version{BlockNum: 1, TxNum: uint64(i)})
	}
	batch.Put(ns, "empty", []byte{}, types.Version{BlockNum: 1, TxNum: 99})
	if err := db.ApplyUpdates(batch, types.Version{BlockNum: 1, TxNum: 100}); err != nil {
		t.Fatal(err)
	}
	keys = append(keys, "empty")

	rng := rand.New(rand.NewSource(28))
	values := [][]byte{nil, {}, []byte("x"), []byte("yy"), []byte("a longer value")}
	const sequences = 5000
	for seq := 0; seq < sequences; seq++ {
		sim := MakeSimulator("tx", ns, db)
		ref := newRefSimulator("tx", ns, db)
		ops := rng.Intn(24)
		for op := 0; op < ops; op++ {
			key := keys[rng.Intn(len(keys))]
			switch rng.Intn(6) {
			case 0, 1:
				v := values[rng.Intn(len(values))]
				_ = sim.PutState(key, v)
				_ = ref.PutState(key, v)
			case 2:
				_ = sim.DelState(key)
				_ = ref.DelState(key)
			case 3, 4:
				got, err1 := sim.GetState(key)
				want, err2 := ref.GetState(key)
				if err1 != nil || err2 != nil || !sameBytes(got, want) {
					t.Fatalf("seq %d op %d: GetState(%q) = %q,%v; reference %q,%v", seq, op, key, got, err1, want, err2)
				}
			case 5:
				end := keys[rng.Intn(len(keys))]
				got, err1 := sim.GetStateRange(key, end)
				want, err2 := ref.GetStateRange(key, end)
				if err1 != nil || err2 != nil || len(got) != len(want) {
					t.Fatalf("seq %d op %d: GetStateRange(%q,%q) = %d,%v; reference %d,%v", seq, op, key, end, len(got), err1, len(want), err2)
				}
				for i := range got {
					if got[i].Key != want[i].Key || got[i].Version != want[i].Version || !sameBytes(got[i].Value, want[i].Value) {
						t.Fatalf("seq %d op %d: range entry %d = %+v; reference %+v", seq, op, i, got[i], want[i])
					}
				}
			}
			if rng.Intn(8) == 0 {
				if got, want := sim.RWSet().Marshal(), ref.RWSet().Marshal(); !bytes.Equal(got, want) {
					t.Fatalf("seq %d op %d: mid-sequence RWSet differs from reference", seq, op)
				}
			}
		}
		if got, want := sim.RWSet().Marshal(), ref.RWSet().Marshal(); !bytes.Equal(got, want) {
			t.Fatalf("seq %d: RWSet differs from reference\n got %x\nwant %x", seq, got, want)
		}
	}
}

// sortStrings is an insertion sort for short key lists.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
