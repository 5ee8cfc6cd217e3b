package chaincode

import (
	"bytes"
	"errors"
	"testing"

	"fabricsim/internal/statedb"
	"fabricsim/internal/types"
)

func seededDB(tb testing.TB, ns string, kv map[string]string) *statedb.DB {
	tb.Helper()
	db := statedb.New()
	batch := statedb.NewUpdateBatch()
	i := uint64(0)
	for k, v := range kv {
		batch.Put(ns, k, []byte(v), types.Version{BlockNum: 1, TxNum: i})
		i++
	}
	if err := db.ApplyUpdates(batch, types.Version{BlockNum: 1, TxNum: i + 1}); err != nil {
		tb.Fatal(err)
	}
	return db
}

func TestSimulatorReadSetVersions(t *testing.T) {
	db := seededDB(t, "cc", map[string]string{"a": "1"})
	sim := MakeSimulator("tx1", "cc", db)

	v, err := sim.GetState("a")
	if err != nil || string(v) != "1" {
		t.Fatalf("GetState a = %q err=%v", v, err)
	}
	if v, _ := sim.GetState("missing"); v != nil {
		t.Error("missing key returned value")
	}

	rw := sim.RWSet()
	if len(rw.Reads) != 2 {
		t.Fatalf("reads = %d", len(rw.Reads))
	}
	if !rw.Reads[0].Exists || rw.Reads[0].Key != "a" {
		t.Errorf("read[0] = %+v", rw.Reads[0])
	}
	if rw.Reads[1].Exists || rw.Reads[1].Key != "missing" {
		t.Errorf("read[1] = %+v", rw.Reads[1])
	}
}

func TestSimulatorReadYourWrites(t *testing.T) {
	db := seededDB(t, "cc", map[string]string{"a": "old"})
	sim := MakeSimulator("tx1", "cc", db)
	if err := sim.PutState("a", []byte("new")); err != nil {
		t.Fatal(err)
	}
	v, _ := sim.GetState("a")
	if string(v) != "new" {
		t.Errorf("read-your-writes returned %q", v)
	}
	// The buffered write must not reach committed state.
	vv, _, _ := db.Get("cc", "a")
	if string(vv.Value) != "old" {
		t.Error("simulation leaked into committed state")
	}
	// A read after a write of the same key records no read entry
	// (the value came from the write buffer, not the ledger).
	rw := sim.RWSet()
	if len(rw.Reads) != 0 {
		t.Errorf("reads = %+v", rw.Reads)
	}
}

func TestSimulatorDelete(t *testing.T) {
	db := seededDB(t, "cc", map[string]string{"a": "1"})
	sim := MakeSimulator("tx1", "cc", db)
	_ = sim.DelState("a")
	if v, _ := sim.GetState("a"); v != nil {
		t.Error("deleted key visible")
	}
	rw := sim.RWSet()
	if len(rw.Writes) != 1 || !rw.Writes[0].IsDelete {
		t.Errorf("writes = %+v", rw.Writes)
	}
}

func TestSimulatorDeterministicWriteOrder(t *testing.T) {
	db := statedb.New()
	s1 := MakeSimulator("t", "cc", db)
	_ = s1.PutState("z", []byte("1"))
	_ = s1.PutState("a", []byte("2"))
	s2 := MakeSimulator("t", "cc", db)
	_ = s2.PutState("a", []byte("2"))
	_ = s2.PutState("z", []byte("1"))
	if !bytes.Equal(s1.RWSet().Marshal(), s2.RWSet().Marshal()) {
		t.Error("write order depends on insertion order; endorsers would diverge")
	}
}

func TestSimulatorRange(t *testing.T) {
	db := seededDB(t, "cc", map[string]string{"k1": "1", "k2": "2", "k3": "3"})
	sim := MakeSimulator("tx1", "cc", db)
	kvs, err := sim.GetStateRange("k1", "k3")
	if err != nil || len(kvs) != 2 {
		t.Fatalf("range = %d err=%v", len(kvs), err)
	}
	rw := sim.RWSet()
	if len(rw.Reads) != 2 {
		t.Errorf("range reads = %d", len(rw.Reads))
	}
}

func TestKVStore(t *testing.T) {
	db := statedb.New()
	cc := NewKVStore("bench")
	sim := MakeSimulator("t1", "bench", db)

	if _, err := cc.Invoke(&sim, "write", [][]byte{[]byte("k"), []byte("v")}); err != nil {
		t.Fatal(err)
	}
	out, err := cc.Invoke(&sim, "read", [][]byte{[]byte("k")})
	if err != nil || string(out) != "v" {
		t.Errorf("read = %q err=%v", out, err)
	}
	if _, err := cc.Invoke(&sim, "nope", nil); !errors.Is(err, ErrUnknownFunction) {
		t.Errorf("unknown fn: %v", err)
	}
	if _, err := cc.Invoke(&sim, "write", [][]byte{[]byte("only-key")}); err == nil {
		t.Error("arity violation accepted")
	}
}

func TestKVStoreReadWrite(t *testing.T) {
	db := seededDB(t, "bench", map[string]string{"k": "v0"})
	cc := NewKVStore("bench")
	sim := MakeSimulator("t1", "bench", db)
	if _, err := cc.Invoke(&sim, "readwrite", [][]byte{[]byte("k"), []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	rw := sim.RWSet()
	if len(rw.Reads) != 1 || len(rw.Writes) != 1 {
		t.Errorf("rwset = %d reads %d writes", len(rw.Reads), len(rw.Writes))
	}
}

func TestMoneyTransfer(t *testing.T) {
	db := statedb.New()
	cc := NewMoneyTransfer("bank")

	open := MakeSimulator("t0", "bank", db)
	if _, err := cc.Invoke(&open, "open", [][]byte{[]byte("alice"), []byte("100")}); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Invoke(&open, "open", [][]byte{[]byte("bob"), []byte("50")}); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Invoke(&open, "transfer", [][]byte{[]byte("alice"), []byte("bob"), []byte("30")}); err != nil {
		t.Fatal(err)
	}
	bal, err := cc.Invoke(&open, "balance", [][]byte{[]byte("alice")})
	if err != nil || string(bal) != "70" {
		t.Errorf("alice balance = %s err=%v", bal, err)
	}
	bal, _ = cc.Invoke(&open, "balance", [][]byte{[]byte("bob")})
	if string(bal) != "80" {
		t.Errorf("bob balance = %s", bal)
	}
}

// TestSharedOKPayloadSurvivesAppends appends to the "OK" of each
// sample chaincode that returns one: the two appends must not share an
// array, and the next call must still read "OK".
func TestSharedOKPayloadSurvivesAppends(t *testing.T) {
	for _, c := range []struct {
		cc   Chaincode
		fn   string
		args [][]byte
	}{
		{NewKVStore("bench"), "write", [][]byte{[]byte("k"), []byte("v")}},
		{NewMoneyTransfer("bank"), "open", [][]byte{[]byte("alice"), []byte("100")}},
		{NewSmallBank("smallbank"), "deposit", [][]byte{[]byte("a1"), []byte("10")}},
	} {
		db := statedb.New()
		invoke := func() []byte {
			sim := MakeSimulator("t", c.cc.Name(), db)
			out, err := c.cc.Invoke(&sim, c.fn, c.args)
			if err != nil {
				t.Fatalf("%s %s: %v", c.cc.Name(), c.fn, err)
			}
			return out
		}
		first := append(invoke(), '1')
		second := append(invoke(), '2')
		if string(first) != "OK1" || string(second) != "OK2" {
			t.Errorf("%s %s: appends read %q and %q, want \"OK1\" and \"OK2\"", c.cc.Name(), c.fn, first, second)
		}
		if got := invoke(); string(got) != "OK" {
			t.Errorf("%s %s: payload after appends = %q, want \"OK\"", c.cc.Name(), c.fn, got)
		}
	}
}

func TestMoneyTransferInsufficientFunds(t *testing.T) {
	db := statedb.New()
	cc := NewMoneyTransfer("bank")
	sim := MakeSimulator("t0", "bank", db)
	_, _ = cc.Invoke(&sim, "open", [][]byte{[]byte("a"), []byte("10")})
	_, _ = cc.Invoke(&sim, "open", [][]byte{[]byte("b"), []byte("0")})
	if _, err := cc.Invoke(&sim, "transfer", [][]byte{[]byte("a"), []byte("b"), []byte("11")}); !errors.Is(err, ErrInsufficientFunds) {
		t.Errorf("overdraft: %v", err)
	}
	if _, err := cc.Invoke(&sim, "transfer", [][]byte{[]byte("ghost"), []byte("b"), []byte("1")}); err == nil {
		t.Error("unknown account accepted")
	}
}

func TestSmallBankLazyAccountsAndOps(t *testing.T) {
	db := statedb.New()
	cc := NewSmallBank("smallbank")
	sim := MakeSimulator("t0", "smallbank", db)

	// Missing accounts materialize at DefaultBalance: a fresh query
	// reads savings + checking.
	out, err := cc.Invoke(&sim, "query", [][]byte{[]byte("a1")})
	if err != nil || string(out) != "20000" {
		t.Fatalf("query fresh = %s err=%v", out, err)
	}
	if _, err := cc.Invoke(&sim, "deposit", [][]byte{[]byte("a1"), []byte("10")}); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Invoke(&sim, "transact", [][]byte{[]byte("a1"), []byte("5")}); err != nil {
		t.Fatal(err)
	}
	out, _ = cc.Invoke(&sim, "query", [][]byte{[]byte("a1")})
	if string(out) != "20015" {
		t.Errorf("after deposit+transact = %s", out)
	}
	if _, err := cc.Invoke(&sim, "sendpayment", [][]byte{[]byte("a1"), []byte("a2"), []byte("100")}); err != nil {
		t.Fatal(err)
	}
	out, _ = cc.Invoke(&sim, "query", [][]byte{[]byte("a2")})
	if string(out) != "20100" {
		t.Errorf("a2 after payment = %s", out)
	}
	if _, err := cc.Invoke(&sim, "amalgamate", [][]byte{[]byte("a1"), []byte("a2")}); err != nil {
		t.Fatal(err)
	}
	out, _ = cc.Invoke(&sim, "query", [][]byte{[]byte("a1")})
	if string(out) != "0" {
		t.Errorf("a1 after amalgamate = %s", out)
	}
	if _, err := cc.Invoke(&sim, "sendpayment", [][]byte{[]byte("a1"), []byte("a2"), []byte("1")}); !errors.Is(err, ErrInsufficientFunds) {
		t.Errorf("drained account payment: %v", err)
	}
	if _, err := cc.Invoke(&sim, "nope", nil); !errors.Is(err, ErrUnknownFunction) {
		t.Errorf("unknown fn: %v", err)
	}
}

func TestSmallBankRMWGeneratesConflictableRWSet(t *testing.T) {
	// Every deposit is a read-modify-write: under contention these are
	// the transactions conflict-aware ordering must arbitrate.
	db := statedb.New()
	cc := NewSmallBank("smallbank")
	sim := MakeSimulator("t0", "smallbank", db)
	if _, err := cc.Invoke(&sim, "deposit", [][]byte{[]byte("hot"), []byte("1")}); err != nil {
		t.Fatal(err)
	}
	rw := sim.RWSet()
	if len(rw.Reads) != 1 || len(rw.Writes) != 1 {
		t.Errorf("deposit rwset = %d reads %d writes, want RMW", len(rw.Reads), len(rw.Writes))
	}
}

func TestCounter(t *testing.T) {
	db := statedb.New()
	cc := NewCounter("ctr")
	sim := MakeSimulator("t0", "ctr", db)
	for want := 1; want <= 3; want++ {
		out, err := cc.Invoke(&sim, "inc", [][]byte{[]byte("c")})
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(rune('0'+want)) {
			t.Errorf("inc -> %s, want %d", out, want)
		}
	}
	out, _ := cc.Invoke(&sim, "get", [][]byte{[]byte("nope")})
	if string(out) != "0" {
		t.Errorf("get missing = %s", out)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry(NewKVStore("a"), NewCounter("b"))
	if _, err := r.Get("a"); err != nil {
		t.Error(err)
	}
	if _, err := r.Get("zzz"); !errors.Is(err, ErrUnknownChaincode) {
		t.Errorf("unknown chaincode: %v", err)
	}
	r.Install(NewMoneyTransfer("c"))
	if cc, err := r.Get("c"); err != nil || cc.Name() != "c" {
		t.Errorf("installed chaincode: %v, %v", cc, err)
	}
}

// mutatorChaincode reads a key and scribbles on the returned bytes —
// the rogue-chaincode case the simulator's read path must contain.
type mutatorChaincode struct{}

func (mutatorChaincode) Name() string { return "mut" }

func (mutatorChaincode) Invoke(stub Stub, fn string, args [][]byte) ([]byte, error) {
	v, err := stub.GetState(string(args[0]))
	if err != nil {
		return nil, err
	}
	for i := range v {
		v[i] = 'X'
	}
	return v, nil
}

// TestMutatingChaincodeCannotCorruptCommittedState proves committed
// state cannot be mutated through the simulator's zero-copy read view:
// the simulator records reads through statedb.GetVersioned but hands
// the chaincode a private copy, so a chaincode scribbling on GetState's
// result never reaches the world state.
func TestMutatingChaincodeCannotCorruptCommittedState(t *testing.T) {
	db := statedb.New()
	b := statedb.NewUpdateBatch()
	b.Put("mut", "k", []byte("committed"), types.Version{BlockNum: 1})
	if err := db.ApplyUpdates(b, types.Version{BlockNum: 1, TxNum: 1}); err != nil {
		t.Fatal(err)
	}
	sim := MakeSimulator("tx1", "mut", db)
	out, err := mutatorChaincode{}.Invoke(&sim, "mutate", [][]byte{[]byte("k")})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "XXXXXXXXX" {
		t.Fatalf("mutator output = %q", out)
	}
	vv, ok, err := db.GetVersioned("mut", "k")
	if err != nil || !ok {
		t.Fatalf("GetVersioned: ok=%v err=%v", ok, err)
	}
	if string(vv.Value) != "committed" {
		t.Errorf("committed state corrupted through the read view: %q", vv.Value)
	}
	// The read was still recorded with its committed version.
	rw := sim.RWSet()
	if len(rw.Reads) != 1 || rw.Reads[0].Key != "k" || !rw.Reads[0].Exists {
		t.Errorf("read set = %+v", rw.Reads)
	}
	if rw.Reads[0].Version.BlockNum != 1 {
		t.Errorf("read version = %+v", rw.Reads[0].Version)
	}
}

// TestSimulateAllocs pins a one-write simulation at 2: the simulator,
// which escapes here as an endorser's escapes inside its reply, and the
// value copy. The one-entry write set lives in the simulator; growing it
// from nil took a third.
func TestSimulateAllocs(t *testing.T) {
	db := statedb.New()
	value := []byte("value")
	allocs := testing.AllocsPerRun(100, func() {
		sim := MakeSimulator("tx", "cc", db)
		_ = sim.PutState("key", value)
		sinkRWSet = sim.RWSet()
	})
	if allocs > 2 {
		t.Errorf("MakeSimulator+PutState+RWSet: %.1f allocations, want <= 2", allocs)
	}
}

// TestSmallBankSendPaymentAllocs pins SmallBank's sendpayment from an
// existing account to one not yet in state (accounts materialize
// lazily) at 12: the simulator; the payer's account string (an error
// message keeps it); two key strings, each built once for its read and
// its write; the payer's value copy out of state; the read set, made once
// with room for both reads; two balance texts and their two copies into
// the write set; the second write's slice; and the "OK" payload. It took
// 14 when each key was built again for its write, and 19 when the reads
// were also deduplicated through a map, the read set grew from nil and
// each balance text was a string converted to bytes.
func TestSmallBankSendPaymentAllocs(t *testing.T) {
	db := seededDB(t, "smallbank", map[string]string{"c:a1": "500"})
	cc := NewSmallBank("smallbank")
	args := [][]byte{[]byte("a1"), []byte("a2"), []byte("10")}
	allocs := testing.AllocsPerRun(100, func() {
		sim := MakeSimulator("tx", "smallbank", db)
		if _, err := cc.Invoke(&sim, "sendpayment", args); err != nil {
			t.Fatal(err)
		}
		sinkRWSet = sim.RWSet()
	})
	if allocs > 11 {
		t.Errorf("sendpayment simulation: %.1f allocations, want <= 11", allocs)
	}
}

// TestWriteSetFirstEntry covers the simulator's inline first write: a
// read-only simulation keeps Writes nil, and a second write moves the
// set to a slice of its own, still in key order.
func TestWriteSetFirstEntry(t *testing.T) {
	db := statedb.New()
	sim := MakeSimulator("tx", "cc", db)
	if _, err := sim.GetState("a"); err != nil {
		t.Fatal(err)
	}
	if w := sim.RWSet().Writes; w != nil {
		t.Fatalf("read-only Writes = %#v, want nil", w)
	}
	_ = sim.PutState("b", []byte("1"))
	_ = sim.PutState("a", []byte("2"))
	_ = sim.PutState("b", []byte("3"))
	w := sim.RWSet().Writes
	if len(w) != 2 || w[0].Key != "a" || w[1].Key != "b" || string(w[1].Value) != "3" {
		t.Fatalf("Writes = %+v, want a=2, b=3", w)
	}
	if &w[0] == &sim.firstWrite[0] {
		t.Error("a two-write set still aliases the inline first entry")
	}
}

// BenchmarkSimulate runs one KVStore write the way an endorser does:
// a fresh simulator, the invoke, then the read-write set.
func BenchmarkSimulate(b *testing.B) {
	db := seededDB(b, "bench", map[string]string{"k": "v0"})
	cc := NewKVStore("bench")
	args := [][]byte{[]byte("k"), []byte("v1")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := MakeSimulator("tx", "bench", db)
		if _, err := cc.Invoke(&sim, "write", args); err != nil {
			b.Fatal(err)
		}
		sinkRWSet = sim.RWSet()
	}
}

var sinkRWSet *types.RWSet
