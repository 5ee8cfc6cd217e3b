package rwdep

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"fabricsim/internal/types"
)

// depTx builds a bare transaction reading and writing the given keys in
// namespace "bench".
func depTx(id string, reads, writes []string) *types.Transaction {
	tx := &types.Transaction{
		Proposal: types.Proposal{TxID: types.TxID(id), ChaincodeID: "bench"},
	}
	for _, r := range reads {
		tx.Results.Reads = append(tx.Results.Reads, types.KVRead{Key: r})
	}
	for _, w := range writes {
		tx.Results.Writes = append(tx.Results.Writes, types.KVWrite{Key: w, Value: []byte("v")})
	}
	return tx
}

// rwOf builds the key sets of one transaction in namespace ns.
func rwOf(ns string, reads, writes []string) RW {
	rw := RW{NS: ns}
	for _, k := range reads {
		rw.Reads = append(rw.Reads, types.KVRead{Key: k})
	}
	for _, k := range writes {
		rw.Writes = append(rw.Writes, types.KVWrite{Key: k})
	}
	return rw
}

// refFromRWSet is the FromRWSet the view replaced, kept as the oracle
// for the key change: it copies every key into a "namespace/key"
// string. Its result sits in the empty namespace, where keys compare
// exactly as those strings did, collisions included.
func refFromRWSet(ns string, rw *types.RWSet) RW {
	out := RW{}
	if rw == nil {
		return out
	}
	if len(rw.Reads) > 0 {
		out.Reads = make([]types.KVRead, len(rw.Reads))
		for i, r := range rw.Reads {
			out.Reads[i] = types.KVRead{Key: ns + "/" + r.Key}
		}
	}
	if len(rw.Writes) > 0 {
		out.Writes = make([]types.KVWrite, len(rw.Writes))
		for i, w := range rw.Writes {
			out.Writes[i] = types.KVWrite{Key: ns + "/" + w.Key}
		}
	}
	return out
}

func allParticipate(n int) []bool {
	p := make([]bool, n)
	for i := range p {
		p[i] = true
	}
	return p
}

func groupsOf(t *testing.T, txs []*types.Transaction, participates []bool) [][]int {
	t.Helper()
	return ConflictGroups(FromTransactions(txs), participates)
}

func TestConflictGroupsDisjointKeys(t *testing.T) {
	txs := make([]*types.Transaction, 5)
	for i := range txs {
		k := fmt.Sprintf("k%d", i)
		txs[i] = depTx(fmt.Sprintf("tx%d", i), nil, []string{k})
	}
	groups := groupsOf(t, txs, allParticipate(len(txs)))
	if len(groups) != 5 {
		t.Fatalf("groups = %d, want 5 singletons", len(groups))
	}
	for i, g := range groups {
		if len(g) != 1 || g[0] != i {
			t.Errorf("group %d = %v", i, g)
		}
	}
}

func TestConflictGroupsTransitiveChain(t *testing.T) {
	// tx0 writes a, tx1 reads a writes b, tx2 reads b: one chain even
	// though tx0 and tx2 share no key directly. tx3 is independent.
	txs := []*types.Transaction{
		depTx("tx0", nil, []string{"a"}),
		depTx("tx1", []string{"a"}, []string{"b"}),
		depTx("tx2", []string{"b"}, nil),
		depTx("tx3", nil, []string{"z"}),
	}
	groups := groupsOf(t, txs, allParticipate(len(txs)))
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want chain + singleton", groups)
	}
	if len(groups[0]) != 3 || groups[0][0] != 0 || groups[0][1] != 1 || groups[0][2] != 2 {
		t.Errorf("chain group = %v, want [0 1 2] in block order", groups[0])
	}
	if len(groups[1]) != 1 || groups[1][0] != 3 {
		t.Errorf("singleton group = %v, want [3]", groups[1])
	}
}

func TestConflictGroupsIgnoreVSCCRejected(t *testing.T) {
	// tx1 touches both a and b but failed VSCC: it must not glue the
	// two otherwise-independent groups together.
	txs := []*types.Transaction{
		depTx("tx0", nil, []string{"a"}),
		depTx("tx1", []string{"a"}, []string{"b"}),
		depTx("tx2", nil, []string{"b"}),
	}
	participates := []bool{true, false, true}
	groups := groupsOf(t, txs, participates)
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want 2 (rejected tx must not merge them)", groups)
	}
}

func TestConflictGroupsNamespaceQualified(t *testing.T) {
	// Same key name in different chaincode namespaces never conflicts.
	a := depTx("tx0", nil, []string{"k"})
	b := depTx("tx1", nil, []string{"k"})
	b.Proposal.ChaincodeID = "other"
	groups := groupsOf(t, []*types.Transaction{a, b}, allParticipate(2))
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want 2 (namespaces are disjoint)", groups)
	}
}

func TestConflictGroupsReadOnlyPairsStayApart(t *testing.T) {
	// Two transactions that only read the same key can never invalidate
	// each other: they must stay independent singletons.
	txs := []*types.Transaction{
		depTx("tx0", []string{"hot"}, []string{"a"}),
		depTx("tx1", []string{"hot"}, []string{"b"}),
	}
	groups := groupsOf(t, txs, allParticipate(2))
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want 2 (read-read sharing must not group)", groups)
	}
	// But a writer of the shared key glues every reader to it, before
	// and after it in block order.
	txs = append(txs, depTx("tx2", nil, []string{"hot"}))
	groups = groupsOf(t, txs, allParticipate(3))
	if len(groups) != 1 {
		t.Fatalf("groups = %v, want 1 once a writer of the key appears", groups)
	}
}

func TestConflictGroupsWriteWriteDistinctNamespaces(t *testing.T) {
	// Write-write on equal key names under distinct namespaces: no
	// conflict, two groups.
	a := depTx("tx0", nil, []string{"k"})
	b := depTx("tx1", nil, []string{"k"})
	b.Proposal.ChaincodeID = "other"
	groups := groupsOf(t, []*types.Transaction{a, b}, allParticipate(2))
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want 2", groups)
	}
	// Same namespace write-write on one key: one group.
	c := depTx("tx0", nil, []string{"k"})
	d := depTx("tx1", nil, []string{"k"})
	groups = groupsOf(t, []*types.Transaction{c, d}, allParticipate(2))
	if len(groups) != 1 {
		t.Fatalf("groups = %v, want 1 (same-namespace write-write)", groups)
	}
}

func TestConflictGroupsEmptyRWSet(t *testing.T) {
	// An empty rwset forms its own singleton group; an empty input
	// yields no groups at all.
	txs := []*types.Transaction{
		depTx("tx0", nil, nil),
		depTx("tx1", nil, []string{"a"}),
	}
	groups := groupsOf(t, txs, allParticipate(2))
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want 2 (empty rwset is a singleton)", groups)
	}
	if got := groupsOf(t, nil, nil); len(got) != 0 {
		t.Fatalf("groups of empty block = %v, want none", got)
	}
}

func TestPartitionGroupsSpreadsAndKeepsChains(t *testing.T) {
	groups := [][]int{{0, 1, 2, 3}, {4}, {5}, {6}, {7}}
	bins := PartitionGroups(groups, 2)
	if len(bins) != 2 {
		t.Fatalf("bins = %d", len(bins))
	}
	// The 4-chain goes to one bin; the four singletons balance the other
	// bin first (LPT), so loads end up 4 vs 4.
	load := func(bin [][]int) int {
		n := 0
		for _, g := range bin {
			n += len(g)
		}
		return n
	}
	if load(bins[0]) != 4 || load(bins[1]) != 4 {
		t.Errorf("loads = %d, %d, want 4 and 4", load(bins[0]), load(bins[1]))
	}
	// Every group lands in exactly one bin.
	total := 0
	for _, bin := range bins {
		total += len(bin)
	}
	if total != len(groups) {
		t.Errorf("distributed %d groups, want %d", total, len(groups))
	}
}

func TestPartitionGroupsSingleBin(t *testing.T) {
	groups := [][]int{{0}, {1}, {2}}
	bins := PartitionGroups(groups, 1)
	if len(bins) != 1 || len(bins[0]) != 3 {
		t.Fatalf("bins = %v, want all groups in one bin", bins)
	}
}

func TestChainsBlindWritesAreSingletons(t *testing.T) {
	// The hot-key plateau case: N blind writes of one key share the key
	// but carry no reads, so no transaction's MVCC outcome depends on
	// another — N singleton chains (vs 1 overlap group).
	txs := make([]*types.Transaction, 4)
	for i := range txs {
		txs[i] = depTx(fmt.Sprintf("tx%d", i), nil, []string{"hot"})
	}
	rws := FromTransactions(txs)
	if chains := Chains(rws, allParticipate(4)); len(chains) != 4 {
		t.Fatalf("chains = %v, want 4 singletons", chains)
	}
	if groups := ConflictGroups(rws, allParticipate(4)); len(groups) != 1 {
		t.Fatalf("groups = %v, want 1 overlap group", groups)
	}
}

func TestChainsConnectEarlierWritersToLaterReaders(t *testing.T) {
	// tx0 writes k; tx1 reads k (depends on tx0); tx2 writes k blind
	// after tx1 — nobody reads k after tx2, so tx2 stays independent.
	txs := []*types.Transaction{
		depTx("tx0", nil, []string{"k"}),
		depTx("tx1", []string{"k"}, nil),
		depTx("tx2", nil, []string{"k"}),
	}
	chains := Chains(FromTransactions(txs), allParticipate(3))
	if len(chains) != 2 {
		t.Fatalf("chains = %v, want [[0 1] [2]]", chains)
	}
	if !reflect.DeepEqual(chains[0], []int{0, 1}) || !reflect.DeepEqual(chains[1], []int{2}) {
		t.Fatalf("chains = %v, want [[0 1] [2]]", chains)
	}
}

func TestChainsCollapseWritersThroughReader(t *testing.T) {
	// Writers w0, w1 of k are joined the moment reader r reads k after
	// both; a later writer w3 stays out until someone reads after it.
	txs := []*types.Transaction{
		depTx("w0", nil, []string{"k"}),
		depTx("w1", nil, []string{"k"}),
		depTx("r", []string{"k"}, nil),
		depTx("w3", nil, []string{"k"}),
		depTx("r2", []string{"k"}, nil),
	}
	chains := Chains(FromTransactions(txs), allParticipate(5))
	if len(chains) != 1 {
		t.Fatalf("chains = %v, want one chain (r2 reads after every writer)", chains)
	}
	if !reflect.DeepEqual(chains[0], []int{0, 1, 2, 3, 4}) {
		t.Fatalf("chain = %v, want ascending block order", chains[0])
	}
}

func TestGraphCycleDetection(t *testing.T) {
	// Two read-modify-writes of one key: a reads k and writes k, b reads
	// k and writes k — each must precede the other, a 2-cycle.
	rmw := []*types.Transaction{
		depTx("a", []string{"k"}, []string{"k"}),
		depTx("b", []string{"k"}, []string{"k"}),
	}
	if g := BuildGraph(FromTransactions(rmw), allParticipate(2)); !g.Cyclic() {
		t.Fatal("two RMWs of one key must form a cycle")
	}
	// A read-before-write pair is orderable: no cycle.
	ok := []*types.Transaction{
		depTx("w", nil, []string{"k"}),
		depTx("r", []string{"k"}, nil),
	}
	if g := BuildGraph(FromTransactions(ok), allParticipate(2)); g.Cyclic() {
		t.Fatal("writer + independent reader must be acyclic")
	}
}

func TestScheduleReordersReadsBeforeWrites(t *testing.T) {
	// FIFO dooms tx1 (reads k after tx0's write); the schedule must put
	// the reader first and save both.
	txs := []*types.Transaction{
		depTx("tx0", nil, []string{"k"}),
		depTx("tx1", []string{"k"}, nil),
	}
	order, aborted := Schedule(FromTransactions(txs), allParticipate(2))
	if len(aborted) != 0 {
		t.Fatalf("aborted = %v, want none (orderable)", aborted)
	}
	if !reflect.DeepEqual(order, []int{1, 0}) {
		t.Fatalf("order = %v, want [1 0] (read before conflicting write)", order)
	}
}

func TestScheduleAbortsCycleMembers(t *testing.T) {
	// Three RMWs of one hot key: only one can survive in any order.
	txs := []*types.Transaction{
		depTx("a", []string{"k"}, []string{"k"}),
		depTx("b", []string{"k"}, []string{"k"}),
		depTx("c", []string{"k"}, []string{"k"}),
	}
	order, aborted := Schedule(FromTransactions(txs), allParticipate(3))
	if len(order) != 1 || len(aborted) != 2 {
		t.Fatalf("order = %v aborted = %v, want one survivor", order, aborted)
	}
	// The greedy victim rule ties to the latest arrival, so the earliest
	// transaction survives.
	if order[0] != 0 {
		t.Errorf("survivor = %d, want 0 (earliest arrival)", order[0])
	}
}

func TestScheduleFIFOWhenConflictFree(t *testing.T) {
	txs := make([]*types.Transaction, 6)
	for i := range txs {
		txs[i] = depTx(fmt.Sprintf("tx%d", i), nil, []string{fmt.Sprintf("k%d", i)})
	}
	order, aborted := Schedule(FromTransactions(txs), allParticipate(6))
	if len(aborted) != 0 {
		t.Fatalf("aborted = %v, want none", aborted)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("order = %v, want FIFO for a conflict-free batch", order)
	}
}

func TestScheduleNonParticipantsKeepPlaceAndNeverAbort(t *testing.T) {
	// A transaction without rwset info (e.g. an unpeekable envelope) is
	// an isolated vertex: ordered by index, never aborted — even when
	// everything around it cycles.
	txs := []*types.Transaction{
		depTx("a", []string{"k"}, []string{"k"}),
		depTx("opaque", []string{"k"}, []string{"k"}), // masked out below
		depTx("b", []string{"k"}, []string{"k"}),
	}
	order, aborted := Schedule(FromTransactions(txs), []bool{true, false, true})
	for _, i := range aborted {
		if i == 1 {
			t.Fatal("non-participant must never abort")
		}
	}
	found := false
	for _, i := range order {
		if i == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("order = %v, must contain the opaque tx", order)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	txs := []*types.Transaction{
		depTx("a", []string{"x"}, []string{"y"}),
		depTx("b", []string{"y"}, []string{"x"}),
		depTx("c", []string{"x"}, nil),
		depTx("d", nil, []string{"z"}),
		depTx("e", []string{"z"}, []string{"z"}),
		depTx("f", []string{"z"}, []string{"z"}),
	}
	rws := FromTransactions(txs)
	order1, aborted1 := Schedule(rws, allParticipate(len(txs)))
	for i := 0; i < 10; i++ {
		order2, aborted2 := Schedule(rws, allParticipate(len(txs)))
		if !reflect.DeepEqual(order1, order2) || !reflect.DeepEqual(aborted1, aborted2) {
			t.Fatalf("run %d: (%v, %v) != (%v, %v)", i, order2, aborted2, order1, aborted1)
		}
	}
	// Sanity: a/b form a 2-cycle (one aborts), e/f RMW-cycle on z (one
	// aborts), c and d are free.
	if len(aborted1) != 2 {
		t.Fatalf("aborted = %v, want 2 cycle victims", aborted1)
	}
}

func TestScheduleSurvivorsConflictFree(t *testing.T) {
	// Property: after scheduling, no survivor reads a key an earlier
	// survivor writes (zero intra-block MVCC conflicts remain).
	txs := []*types.Transaction{
		depTx("t0", []string{"a"}, []string{"b"}),
		depTx("t1", []string{"b"}, []string{"c"}),
		depTx("t2", []string{"c"}, []string{"a"}),
		depTx("t3", nil, []string{"a"}),
		depTx("t4", []string{"a"}, nil),
		depTx("t5", []string{"b", "c"}, []string{"d"}),
	}
	rws := FromTransactions(txs)
	order, _ := Schedule(rws, allParticipate(len(txs)))
	dirty := map[key]bool{}
	for _, i := range order {
		for _, r := range rws[i].Reads {
			if dirty[key{rws[i].NS, r.Key}] {
				t.Fatalf("survivor %d reads %s already written earlier in the schedule %v", i, r.Key, order)
			}
		}
		for _, w := range rws[i].Writes {
			dirty[key{rws[i].NS, w.Key}] = true
		}
	}
}

// TestQualifiedKeysDoNotCollide pins that a key is the (namespace, key)
// pair. Key "c" under chaincode "a/b" and key "b/c" under "a" both read
// "a/b/c" once joined with a slash, which glued the two into one group
// and one chain and made a cycle the schedule had to abort; they share
// no key.
func TestQualifiedKeysDoNotCollide(t *testing.T) {
	tx0 := depTx("tx0", []string{"c"}, []string{"c"})
	tx0.Proposal.ChaincodeID = "a/b"
	tx1 := depTx("tx1", []string{"b/c"}, []string{"b/c"})
	tx1.Proposal.ChaincodeID = "a"
	rws := FromTransactions([]*types.Transaction{tx0, tx1})
	if groups := ConflictGroups(rws, nil); len(groups) != 2 {
		t.Errorf("ConflictGroups = %v, want two singletons", groups)
	}
	if chains := Chains(rws, nil); len(chains) != 2 {
		t.Errorf("Chains = %v, want two singletons", chains)
	}
	if order, aborted := Schedule(rws, nil); len(aborted) != 0 || !reflect.DeepEqual(order, []int{0, 1}) {
		t.Errorf("Schedule = %v, aborted %v; want [0 1] and none", order, aborted)
	}
}

// randomBatch draws n transactions over nkeys keys in each of nns
// namespaces, uniformly or (zipf > 1) Zipf-skewed: read-modify-writes,
// blind writes, read-only and mixed transactions of up to three keys a
// side, about one in twenty masked out as a non-participant. No name
// holds a slash, so the concatenated keys of refFromRWSet cannot collide.
func randomBatch(rng *rand.Rand, n, nkeys, nns int, zipf float64) ([]RW, []bool) {
	pick := func() string { return fmt.Sprintf("k%d", rng.Intn(nkeys)) }
	if zipf > 1 {
		z := rand.NewZipf(rng, zipf, 1, uint64(nkeys-1))
		pick = func() string { return fmt.Sprintf("k%d", z.Uint64()) }
	}
	keys := func(m int) []string {
		out := make([]string, m)
		for i := range out {
			out[i] = pick()
		}
		return out
	}
	rws := make([]RW, n)
	participates := make([]bool, n)
	for i := range rws {
		participates[i] = rng.Intn(20) != 0
		ns := fmt.Sprintf("cc%d", rng.Intn(nns))
		switch rng.Intn(5) {
		case 0: // read-modify-write
			ks := keys(1 + rng.Intn(2))
			rws[i] = rwOf(ns, ks, ks)
		case 1: // blind write
			rws[i] = rwOf(ns, nil, keys(1+rng.Intn(3)))
		case 2: // read-only
			rws[i] = rwOf(ns, keys(1+rng.Intn(3)), nil)
		default:
			rws[i] = rwOf(ns, keys(rng.Intn(4)), keys(rng.Intn(4)))
		}
	}
	return rws, participates
}

// referenceBatch draws the batch shapes the differential tests share:
// three in four small, every other one Zipf-skewed, one in sixteen with
// participates nil (all participate), over one to three namespaces.
func referenceBatch(rng *rand.Rand, b int) ([]RW, []bool) {
	// The schedule reference costs victims × batch, so three batches in
	// four are small; those also reach the odd shapes (one component, a
	// chain of them, none) far more often per millisecond.
	n := 1 + rng.Intn(40)
	if b%4 == 0 {
		n = 1 + rng.Intn(150)
	}
	nkeys := 2 + rng.Intn(2*n)
	nns := 1 + rng.Intn(3)
	zipf := 0.0
	if b%2 == 1 {
		zipf = 1.05 + rng.Float64()
	}
	rws, participates := randomBatch(rng, n, nkeys, nns, zipf)
	if b%16 == 0 {
		participates = nil
	}
	return rws, participates
}

// TestViewsMatchConcatenatedKeys diffs the (namespace, key) views
// against the concatenated "namespace/key" strings they replaced, on
// 10 000 seeded batches: groups, chains, schedule and graph must all be
// equal, so every peer and OSN keeps the fan-out and blocks it had.
func TestViewsMatchConcatenatedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for b := 0; b < 10000; b++ {
		drawn, participates := referenceBatch(rng, b)
		rws, ref := make([]RW, len(drawn)), make([]RW, len(drawn))
		for i, rw := range drawn {
			set := &types.RWSet{Reads: rw.Reads, Writes: rw.Writes}
			rws[i], ref[i] = FromRWSet(rw.NS, set), refFromRWSet(rw.NS, set)
		}
		if got, want := ConflictGroups(rws, participates), ConflictGroups(ref, participates); !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: ConflictGroups = %v, concatenated keys give %v", b, got, want)
		}
		if got, want := Chains(rws, participates), Chains(ref, participates); !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: Chains = %v, concatenated keys give %v", b, got, want)
		}
		order, aborted := Schedule(rws, participates)
		if wantOrder, wantAborted := Schedule(ref, participates); !reflect.DeepEqual(order, wantOrder) || !reflect.DeepEqual(aborted, wantAborted) {
			t.Fatalf("batch %d: Schedule = %v, %v; concatenated keys give %v, %v", b, order, aborted, wantOrder, wantAborted)
		}
		g, want := BuildGraph(rws, participates), BuildGraph(ref, participates)
		for u := range rws {
			if !slices.Equal(g.Succ(u), want.Succ(u)) {
				t.Fatalf("batch %d: Succ(%d) = %v, concatenated keys give %v", b, u, g.Succ(u), want.Succ(u))
			}
		}
	}
}

// TestGroupsMatchReference diffs collectGroups against the map-based
// implementation it replaced, on the union-finds ConflictGroups and
// Chains build over the 10 000 batches TestViewsMatchConcatenatedKeys
// draws: every committer must fan out exactly the groups it did. All
// groups share one slab, so each must also own its capacity: an append
// to one group may not change any other.
func TestGroupsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	views := []struct {
		name   string
		groups func([]RW, []bool) [][]int
		forest func([]RW, []bool) unionFind
	}{
		{"ConflictGroups", ConflictGroups, overlapForest},
		{"Chains", Chains, chainForest},
	}
	for b := 0; b < 10000; b++ {
		rws, participates := referenceBatch(rng, b)
		for _, view := range views {
			got := view.groups(rws, participates)
			want := collectGroupsReference(view.forest(rws, participates), participates)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d: %s = %v, reference gives %v", b, view.name, got, want)
			}
			for i := range got {
				_ = append(got[i], -1)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d: %s: appending to its groups changed them to %v, want %v", b, view.name, got, want)
			}
		}
	}
}

// TestConflictGroupsAllocs pins collectGroups' slab: grouping keyless
// singletons, where only the grouping allocates, costs the same handful
// of allocations at every block size. The map-based grouping spent one
// more per group (100 singletons: 112, 400 singletons: 416).
func TestConflictGroupsAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		rws := make([]RW, n)
		return testing.AllocsPerRun(50, func() { benchSink += len(ConflictGroups(rws, nil)) })
	}
	small, large := allocs(100), allocs(400)
	t.Logf("100 singletons: %.0f allocs; 400 singletons: %.0f allocs", small, large)
	if small != large || small > 5 {
		t.Errorf("ConflictGroups on 100 and 400 singletons: %.0f and %.0f allocations, want the same count, at most 5", small, large)
	}
}

// TestFromTransactionsAllocs pins the views: FromRWSet copies nothing,
// and FromTransactions allocates only the block's []RW.
func TestFromTransactionsAllocs(t *testing.T) {
	txs := zipfTxs()
	if allocs := testing.AllocsPerRun(100, func() { rwSink = FromRWSet("bank", &txs[0].Results) }); allocs != 0 {
		t.Errorf("FromRWSet: %.0f allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { rwsSink = FromTransactions(txs) }); allocs != 1 {
		t.Errorf("FromTransactions on a %d-tx block: %.0f allocations, want 1", len(txs), allocs)
	}
}

// TestScheduleMatchesReference diffs the incremental Schedule against
// the implementation it replaced: every OSN must keep cutting the blocks
// it cut before, so order and abort set have to be equal, not merely
// both valid.
func TestScheduleMatchesReference(t *testing.T) {
	const batches = 10000
	rng := rand.New(rand.NewSource(19))
	victims := 0
	for b := 0; b < batches; b++ {
		rws, participates := referenceBatch(rng, b)
		wantOrder, wantAborted := scheduleReference(rws, participates)
		order, aborted := Schedule(rws, participates)
		if !reflect.DeepEqual(order, wantOrder) || !reflect.DeepEqual(aborted, wantAborted) {
			t.Fatalf("batch %d (%d tx):\n order   %v\n want    %v\n aborted %v\n want    %v",
				b, len(rws), order, wantOrder, aborted, wantAborted)
		}
		victims += len(aborted)
		// The exported graph keeps its contract too: ascending,
		// de-duplicated successors.
		g, ref := BuildGraph(rws, participates), buildRefGraph(rws, participates)
		for u := range rws {
			if got, want := g.Succ(u), ref.succ[u]; !slices.Equal(got, want) {
				t.Fatalf("batch %d: Succ(%d) = %v, want %v", b, u, got, want)
			}
		}
	}
	if victims < batches {
		t.Fatalf("only %d victims over %d batches: the generator no longer exercises cycle breaking", victims, batches)
	}
}

// TestScheduleDegreeCountsOtherComponents pins the cross-component half
// of the victim rule. {0,1} and {2,3} are separate 2-cycles joined by
// the edge 0→2 (tx0 also reads q, which tx2 writes), so 0 and 2 start
// at degree 3. 2 goes first (tie to the latest arrival), which must
// lower 0 to degree 2 even though 0 sits in the other component; the
// tie in {0,1} then aborts 1. A degree left stale would abort 0, and a
// degree counted inside a vertex's own component only would abort 3.
func TestScheduleDegreeCountsOtherComponents(t *testing.T) {
	rws := []RW{
		rwOf("cc", []string{"x", "q"}, []string{"y"}),
		rwOf("cc", []string{"y"}, []string{"x"}),
		rwOf("cc", []string{"p"}, []string{"q"}),
		rwOf("cc", []string{"q"}, []string{"p"}),
	}
	order, aborted := Schedule(rws, nil)
	if !reflect.DeepEqual(aborted, []int{1, 2}) || !reflect.DeepEqual(order, []int{0, 3}) {
		t.Fatalf("order = %v aborted = %v, want [0 3] and [1 2]", order, aborted)
	}
	refOrder, refAborted := scheduleReference(rws, nil)
	if !reflect.DeepEqual(order, refOrder) || !reflect.DeepEqual(aborted, refAborted) {
		t.Fatalf("reference disagrees: order = %v aborted = %v", refOrder, refAborted)
	}
}

// zipfBatch is the benchmark's contended shape: 100 SmallBank-like
// transactions, three in four a two-account read-modify-write and the
// rest a balance read, accounts Zipf(1.2) over 10 000. v is the Zipf
// offset: 1 is the benchmark's skew, larger flattens the head.
func zipfBatch(v float64) []RW {
	rng := rand.New(rand.NewSource(7))
	z := rand.NewZipf(rng, 1.2, v, 9999)
	rws := make([]RW, 100)
	for i := range rws {
		a, b := fmt.Sprintf("acc%d", z.Uint64()), fmt.Sprintf("acc%d", z.Uint64())
		if i%4 == 3 {
			rws[i] = rwOf("bank", []string{a}, nil)
		} else {
			rws[i] = rwOf("bank", []string{a, b}, []string{a, b})
		}
	}
	return rws
}

// zipfTxs is zipfBatch(1) as the block of transactions a committer
// decodes.
func zipfTxs() []*types.Transaction {
	rws := zipfBatch(1)
	txs := make([]*types.Transaction, len(rws))
	for i, rw := range rws {
		txs[i] = &types.Transaction{
			Proposal: types.Proposal{TxID: types.TxID(fmt.Sprintf("tx%d", i)), ChaincodeID: rw.NS},
			Results:  types.RWSet{Reads: rw.Reads, Writes: rw.Writes},
		}
	}
	return txs
}

// TestScheduleAllocationBudget holds Schedule to a handful of
// allocations per batch, and — the point of the incremental pass — to
// the same handful however many victims the batch has. The old
// implementation spent about fifty allocations per victim.
func TestScheduleAllocationBudget(t *testing.T) {
	few, many := zipfBatch(20), zipfBatch(1)
	_, fewAborted := Schedule(few, nil)
	_, manyAborted := Schedule(many, nil)
	if len(fewAborted) < 10 || len(manyAborted) < 2*len(fewAborted) {
		t.Fatalf("victims = %d and %d, want >= 10 and at least twice as many", len(fewAborted), len(manyAborted))
	}
	fewAllocs := testing.AllocsPerRun(20, func() { Schedule(few, nil) })
	manyAllocs := testing.AllocsPerRun(20, func() { Schedule(many, nil) })
	t.Logf("%d victims: %.0f allocs; %d victims: %.0f allocs", len(fewAborted), fewAllocs, len(manyAborted), manyAllocs)
	if fewAllocs > 300 || manyAllocs > 300 {
		t.Errorf("allocs per Schedule = %.0f and %.0f, want <= 300", fewAllocs, manyAllocs)
	}
	if d := manyAllocs - fewAllocs; d > 5 || d < -5 {
		t.Errorf("allocs moved by %.0f with the victim count (%.0f -> %.0f), want within 5", d, fewAllocs, manyAllocs)
	}
}

// TestScheduleConcurrentCallers runs Schedule from several goroutines at
// once, as OSNs and channels do: under -race it fails if scratch ever
// becomes shared between calls.
func TestScheduleConcurrentCallers(t *testing.T) {
	rws := zipfBatch(1)
	wantOrder, wantAborted := Schedule(rws, nil)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				order, aborted := Schedule(rws, nil)
				if !reflect.DeepEqual(order, wantOrder) || !reflect.DeepEqual(aborted, wantAborted) {
					t.Errorf("concurrent call returned order %v aborted %v", order, aborted)
					return
				}
			}
		}()
	}
	wg.Wait()
}

var (
	benchSink int
	rwSink    RW
	rwsSink   []RW
)

func BenchmarkSchedule(b *testing.B) {
	rws := zipfBatch(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order, aborted := Schedule(rws, nil)
		benchSink += len(order) + len(aborted)
	}
}

// BenchmarkFromTransactions times the key analysis a committer runs on
// every reordered block before it fans out: the views, then Chains.
func BenchmarkFromTransactions(b *testing.B) {
	txs := zipfTxs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(Chains(FromTransactions(txs), nil))
	}
}

// BenchmarkConflictGroups times the committer's fan-out on an untagged
// block: the contended 100-tx batch's key-overlap groups.
func BenchmarkConflictGroups(b *testing.B) {
	rws := zipfBatch(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(ConflictGroups(rws, nil))
	}
}

// collectGroupsReference is the collectGroups the slab replaced, kept
// verbatim as the oracle: one map entry per root, one append per
// member.
func collectGroupsReference(uf unionFind, participates []bool) [][]int {
	byRoot := make(map[int][]int)
	roots := make([]int, 0, len(uf))
	for i := range uf {
		if participates != nil && !participates[i] {
			continue
		}
		r := uf.find(i)
		if _, ok := byRoot[r]; !ok {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], i)
	}
	groups := make([][]int, 0, len(roots))
	for _, r := range roots {
		groups = append(groups, byRoot[r])
	}
	return groups
}

// refGraph, buildRefGraph, cycleVertices and scheduleReference are the
// implementation Schedule replaced, kept verbatim as the oracle the
// incremental one is diffed against: one full-graph Tarjan pass and a
// full degree rescan per aborted transaction.
type refGraph struct {
	n    int
	succ [][]int
	pred [][]int
}

func buildRefGraph(rws []RW, participates []bool) *refGraph {
	n := len(rws)
	readers := make(map[key][]int) // key -> txs reading it
	writers := make(map[key][]int) // key -> txs writing it
	for i, rw := range rws {
		if participates != nil && !participates[i] {
			continue
		}
		for _, r := range rw.Reads {
			k := key{rw.NS, r.Key}
			readers[k] = append(readers[k], i)
		}
		for _, w := range rw.Writes {
			k := key{rw.NS, w.Key}
			writers[k] = append(writers[k], i)
		}
	}
	edges := make(map[[2]int]struct{})
	for k, rs := range readers {
		ws := writers[k]
		if len(ws) == 0 {
			continue
		}
		for _, r := range rs {
			for _, w := range ws {
				if r != w {
					edges[[2]int{r, w}] = struct{}{}
				}
			}
		}
	}
	g := &refGraph{n: n, succ: make([][]int, n), pred: make([][]int, n)}
	for e := range edges {
		g.succ[e[0]] = append(g.succ[e[0]], e[1])
		g.pred[e[1]] = append(g.pred[e[1]], e[0])
	}
	for i := 0; i < n; i++ {
		sort.Ints(g.succ[i])
		sort.Ints(g.pred[i])
	}
	return g
}

// cycleVertices returns, sorted ascending, every vertex belonging to a
// non-trivial strongly connected component, ignoring removed vertices.
func (g *refGraph) cycleVertices(removed []bool) []int {
	// Iterative Tarjan SCC.
	const unvisited = -1
	index := make([]int, g.n)
	low := make([]int, g.n)
	onStack := make([]bool, g.n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int
	var cyclic []int
	next := 0

	type frame struct {
		v  int
		ei int
	}
	for root := 0; root < g.n; root++ {
		if index[root] != unvisited || (removed != nil && removed[root]) {
			continue
		}
		frames := []frame{{v: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			advanced := false
			for f.ei < len(g.succ[f.v]) {
				w := g.succ[f.v][f.ei]
				f.ei++
				if removed != nil && removed[w] {
					continue
				}
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := &frames[len(frames)-1]; low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				if len(comp) > 1 {
					cyclic = append(cyclic, comp...)
				}
			}
		}
	}
	sort.Ints(cyclic)
	return cyclic
}

func scheduleReference(rws []RW, participates []bool) (order []int, aborted []int) {
	g := buildRefGraph(rws, participates)
	removed := make([]bool, g.n)

	// Break cycles: repeatedly abort the heaviest member of each
	// remaining cyclic component until the graph is acyclic.
	for {
		cyclic := g.cycleVertices(removed)
		if len(cyclic) == 0 {
			break
		}
		inCycle := make(map[int]bool, len(cyclic))
		for _, v := range cyclic {
			inCycle[v] = true
		}
		victim, victimDeg := -1, -1
		for _, v := range cyclic {
			deg := 0
			for _, w := range g.succ[v] {
				if inCycle[w] && !removed[w] {
					deg++
				}
			}
			for _, w := range g.pred[v] {
				if inCycle[w] && !removed[w] {
					deg++
				}
			}
			// >= ties to the latest arrival: aborting the youngest
			// equally-entangled transaction preserves more of the
			// earlier-submitted work.
			if deg >= victimDeg {
				victim, victimDeg = v, deg
			}
		}
		removed[victim] = true
		aborted = append(aborted, victim)
	}

	// Kahn's algorithm with a min-index heap: deterministic, FIFO when
	// unconstrained.
	indeg := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		if removed[u] {
			continue
		}
		for _, w := range g.succ[u] {
			if !removed[w] {
				indeg[w]++
			}
		}
	}
	h := &intHeap{}
	for i := 0; i < g.n; i++ {
		if !removed[i] && indeg[i] == 0 {
			heap.Push(h, i)
		}
	}
	order = make([]int, 0, g.n-len(aborted))
	for h.Len() > 0 {
		u := heap.Pop(h).(int)
		order = append(order, u)
		for _, w := range g.succ[u] {
			if removed[w] {
				continue
			}
			indeg[w]--
			if indeg[w] == 0 {
				heap.Push(h, w)
			}
		}
	}
	sort.Ints(aborted)
	return order, aborted
}
