// Package rwdep is the shared read-write-set dependency engine: the
// single place ordering and validation reason about which transactions
// in a batch conflict with which. It offers three views over the same
// namespace-qualified key sets:
//
//   - ConflictGroups: undirected key-overlap partitioning (union-find),
//     the committer's classic fan-out unit. Two transactions land in one
//     group when they share a key and at least one of them writes it,
//     directly or transitively; read-only sharing never groups.
//
//   - Graph / Schedule: the directed precedence graph of Fabric++'s
//     reordering pass. An edge u→v means u reads a key v writes, so u
//     must run before v for u's read to stay fresh inside the block.
//     Schedule breaks cycles by aborting transactions (greedy
//     highest-degree victim, deterministic) and emits a topological
//     order of the survivors — a block order with zero intra-block
//     read-write conflicts among them.
//
//   - Chains: block-order dependency components. Within a committed
//     block, transaction j's MVCC outcome depends only on earlier
//     transactions whose writes intersect j's reads; Chains connects
//     exactly those pairs, so each component walks serially while
//     components validate in parallel with flags identical to the
//     legacy serial walk. A block of blind writes on one hot key is one
//     overlap group but N singleton chains — the difference that breaks
//     the hot-key commit plateau once the cutter has certified the
//     block conflict-ordered.
package rwdep

import (
	"container/heap"
	"math"
	"sort"

	"fabricsim/internal/types"
)

// RW is one transaction's key sets in its chaincode namespace NS. A key
// is the pair (NS, Key), so equal keys under distinct chaincodes never
// alias (Fabric's namespacing rule), whatever either name contains.
//
// RW is a view: Reads and Writes are the read-write set's own slices,
// which the analysis only reads. Only their keys matter here.
type RW struct {
	NS     string
	Reads  []types.KVRead
	Writes []types.KVWrite
}

// key is one namespace-qualified key, the unit every analysis below
// compares.
type key struct{ ns, key string }

// FromRWSet views one endorsed read-write set in its chaincode
// namespace. It copies nothing.
func FromRWSet(ns string, rw *types.RWSet) RW {
	if rw == nil {
		return RW{NS: ns}
	}
	return RW{NS: ns, Reads: rw.Reads, Writes: rw.Writes}
}

// FromTransactions views every transaction's key sets.
func FromTransactions(txs []*types.Transaction) []RW {
	out := make([]RW, len(txs))
	for i, tx := range txs {
		out[i] = FromRWSet(tx.Proposal.ChaincodeID, &tx.Results)
	}
	return out
}

// unionFind is a path-halving union-find over transaction indices.
type unionFind []int

func newUnionFind(n int) unionFind {
	uf := make(unionFind, n)
	for i := range uf {
		uf[i] = i
	}
	return uf
}

func (uf unionFind) find(x int) int {
	for uf[x] != x {
		uf[x] = uf[uf[x]] // path halving
		x = uf[x]
	}
	return x
}

func (uf unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra != rb {
		uf[rb] = ra
	}
}

// collectGroups gathers participating indices by union-find root. Each
// group lists indices in ascending block order; groups appear in order
// of their first member. A first pass counts every root's members, so
// all groups are windows of one slab, each capped at its own length so
// that an append to one cannot spill into the next.
func collectGroups(uf unionFind, participates []bool) [][]int {
	scratch := make([]int, 2*len(uf))
	size, at := scratch[:len(uf)], scratch[len(uf):]
	ngroups := 0
	for i := range uf {
		if participates == nil || participates[i] {
			r := uf.find(i)
			if size[r] == 0 {
				ngroups++
			}
			size[r]++
		}
	}
	slab := make([]int, len(uf))
	groups := make([][]int, 0, ngroups)
	next := 0
	for i := range uf {
		if participates != nil && !participates[i] {
			continue
		}
		r := uf.find(i)
		if n := size[r]; n > 0 {
			groups = append(groups, slab[next:next+n:next+n])
			at[r], size[r] = next, 0
			next += n
		}
		slab[at[r]] = i
		at[r]++
	}
	return groups
}

// ConflictGroups partitions transactions into conflict-free groups for
// a dependency-parallel commit stage. Two transactions belong to the
// same group when they share a namespace-qualified key and at least one
// of the sharers writes it, directly or transitively; transactions in
// different groups validate and apply with identical outcomes in any
// interleaving. Pure read-read sharing never groups: reads cannot
// invalidate each other, so read-only transactions on a hot key stay
// independent singletons.
//
// Only transactions with participates[i] set are grouped (nil means all
// participate): the committer masks out VSCC-rejected transactions so
// their key sets cannot glue otherwise-independent groups together. A
// participating transaction with an empty rwset forms its own singleton
// group.
func ConflictGroups(rws []RW, participates []bool) [][]int {
	return collectGroups(overlapForest(rws, participates), participates)
}

// overlapForest unions the transactions ConflictGroups groups.
func overlapForest(rws []RW, participates []bool) unionFind {
	uf := newUnionFind(len(rws))
	// Per key: the representative of every writer (and the readers
	// already glued to one), or the reader list while no writer has
	// appeared yet. Readers union only through a writer of their key.
	writerRep := make(map[key]int)
	pendingReaders := make(map[key][]int)
	for i, rw := range rws {
		if participates != nil && !participates[i] {
			continue
		}
		for _, kw := range rw.Writes {
			k := key{rw.NS, kw.Key}
			if w, ok := writerRep[k]; ok {
				uf.union(w, i)
				continue
			}
			writerRep[k] = i
			for _, r := range pendingReaders[k] {
				uf.union(r, i)
			}
			delete(pendingReaders, k)
		}
		for _, r := range rw.Reads {
			k := key{rw.NS, r.Key}
			if w, ok := writerRep[k]; ok {
				uf.union(w, i)
			} else {
				pendingReaders[k] = append(pendingReaders[k], i)
			}
		}
	}
	return uf
}

// Chains partitions transactions into block-order dependency
// components: i and j (i < j) connect exactly when a write of i
// intersects a read of j — the only relation that can change j's MVCC
// outcome. Each chain must walk serially in block order; distinct
// chains share no read-from-earlier-write relation, so walking them
// concurrently with chain-local dirty sets produces flags identical to
// the legacy block-wide serial walk. Output conventions match
// ConflictGroups (ascending indices, ordered by first member).
func Chains(rws []RW, participates []bool) [][]int {
	return collectGroups(chainForest(rws, participates), participates)
}

// chainForest unions the transactions Chains connects.
func chainForest(rws []RW, participates []bool) unionFind {
	uf := newUnionFind(len(rws))
	// Per key: earlier writers collapse into one representative the
	// first time a later reader touches them (the reader connects them
	// all transitively); writers after that reader accumulate anew.
	collapsed := make(map[key]int)
	newWriters := make(map[key][]int)
	for j, rw := range rws {
		if participates != nil && !participates[j] {
			continue
		}
		// Reads first: a transaction's own write must not make it its
		// own predecessor.
		for _, r := range rw.Reads {
			k := key{rw.NS, r.Key}
			rep, hasRep := collapsed[k]
			fresh := newWriters[k]
			if !hasRep && len(fresh) == 0 {
				continue // no earlier writer: the read cannot conflict
			}
			if hasRep {
				uf.union(rep, j)
			}
			for _, w := range fresh {
				uf.union(w, j)
			}
			collapsed[k] = uf.find(j)
			delete(newWriters, k)
		}
		for _, w := range rw.Writes {
			k := key{rw.NS, w.Key}
			newWriters[k] = append(newWriters[k], j)
		}
	}
	return uf
}

// PartitionGroups distributes groups (or chains) across pool bins with
// a longest-processing-time greedy: groups sorted by size descending,
// each placed on the least-loaded bin. A block-wide dependency chain is
// one group and lands on a single bin — it is inherently serial — while
// the singleton groups of a low-conflict block spread evenly, so the
// modeled wall cost of the apply stage is the heaviest bin, not the
// whole block.
func PartitionGroups(groups [][]int, pool int) [][][]int {
	if pool < 1 {
		pool = 1
	}
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(groups[order[a]]) > len(groups[order[b]])
	})
	bins := make([][][]int, pool)
	loads := make([]int, pool)
	for _, gi := range order {
		best := 0
		for b := 1; b < pool; b++ {
			if loads[b] < loads[best] {
				best = b
			}
		}
		bins[best] = append(bins[best], groups[gi])
		loads[best] += len(groups[gi])
	}
	return bins
}

// Graph is the directed precedence graph over one batch: an edge u→v
// means u reads a namespace-qualified key v writes, so u must precede v
// in the block for u's read to stay fresh. Transactions without rwset
// information (participates[i] unset) are isolated vertices: they keep
// their place in any ordering and are never aborted.
//
// Adjacency is in compressed rows: the successors of u are
// succ[succOff[u]:succOff[u+1]], predecessors likewise.
type Graph struct {
	n                int
	succOff, predOff []int
	succ, pred       []int
}

// BuildGraph constructs the precedence graph. Edges are deduplicated
// and adjacency lists are sorted ascending, so the graph — and
// everything derived from it — is a pure function of the input.
func BuildGraph(rws []RW, participates []bool) *Graph {
	n := len(rws)
	in := func(i int) bool { return participates == nil || participates[i] }
	nr, nw := 0, 0
	for i, rw := range rws {
		if in(i) {
			nr += len(rw.Reads)
			nw += len(rw.Writes)
		}
	}
	// Only a written key can carry an edge. lastWrite interns each one
	// as the position of its latest write, and every write links back to
	// the previous write of its key, so a key's writers are one chain
	// walk from there; depth is the length of that walk.
	type write struct{ tx, prev, depth int }
	writes := make([]write, 0, nw)
	lastWrite := make(map[key]int, nw)
	for i, rw := range rws {
		if !in(i) {
			continue
		}
		for _, kw := range rw.Writes {
			k := key{rw.NS, kw.Key}
			w := write{tx: i, prev: -1, depth: 1}
			if prev, ok := lastWrite[k]; ok {
				w.prev, w.depth = prev, writes[prev].depth+1
			}
			lastWrite[k] = len(writes)
			writes = append(writes, w)
		}
	}
	// Resolve every read to its key's chain once; the chain lengths
	// bound the edge count, so succ is allocated once.
	chains := make([]int, 0, nr)
	bound := 0
	for i, rw := range rws {
		if !in(i) {
			continue
		}
		for _, r := range rw.Reads {
			at, ok := lastWrite[key{rw.NS, r.Key}]
			if !ok {
				at = -1
			} else {
				bound += writes[at].depth
			}
			chains = append(chains, at)
		}
	}

	offs := make([]int, 2*(n+1))
	g := &Graph{n: n, succOff: offs[:n+1], predOff: offs[n+1:], succ: make([]int, 0, bound)}
	// seen[w] == u+1 marks the edge u→w as already emitted.
	seen := make([]int, n)
	for u, rw := range rws {
		if in(u) {
			for _, at := range chains[:len(rw.Reads)] {
				for ; at >= 0; at = writes[at].prev {
					if w := writes[at].tx; w != u && seen[w] != u+1 {
						seen[w] = u + 1
						g.succ = append(g.succ, w)
					}
				}
			}
			chains = chains[len(rw.Reads):]
			sort.Ints(g.succ[g.succOff[u]:])
		}
		g.succOff[u+1] = len(g.succ)
	}

	// pred is the transpose; filling it in ascending u keeps every list
	// ascending.
	for _, w := range g.succ {
		g.predOff[w+1]++
	}
	for v := 0; v < n; v++ {
		g.predOff[v+1] += g.predOff[v]
	}
	g.pred = make([]int, len(g.succ))
	fill := seen
	copy(fill, g.predOff)
	for u := 0; u < n; u++ {
		for _, w := range g.Succ(u) {
			g.pred[fill[w]] = u
			fill[w]++
		}
	}
	return g
}

// Succ returns the successors of u: transactions that must come after u.
func (g *Graph) Succ(u int) []int { return g.succ[g.succOff[u]:g.succOff[u+1]] }

func (g *Graph) predOf(v int) []int { return g.pred[g.predOff[v]:g.predOff[v+1]] }

// tarjan is the package's one strongly-connected-components routine: an
// iterative Tarjan whose scratch outlives a single pass, so breakCycles
// can re-run it over part of the graph without allocating.
type tarjan struct {
	g *Graph
	// index[v] is unvisited, v's discovery number while v is on the
	// stack, or finished once its component is known. A finished vertex
	// can never lower a low-link, so an edge into one is ignored — which
	// is also what confines a re-run to the vertices it was reset on.
	index, low []int
	// comp[v] identifies v's component when that component is
	// non-trivial (v lies on a cycle), else -1.
	comp   []int
	stack  []int
	frames []tarjanFrame
	next   int // next discovery number
	ncomp  int // non-trivial components found so far, over all passes
}

type tarjanFrame struct{ v, edge int } // edge indexes g.succ

const (
	unvisited = -1
	finished  = math.MaxInt
)

// components finds the strongly connected components of the whole graph.
func components(g *Graph) *tarjan {
	t := &tarjan{
		g: g, index: make([]int, g.n), low: make([]int, g.n), comp: make([]int, g.n),
		// Neither outgrows the vertex count, so no pass reallocates.
		stack: make([]int, 0, g.n), frames: make([]tarjanFrame, 0, g.n),
	}
	for v := range t.index {
		t.index[v], t.comp[v] = unvisited, -1
	}
	for v := range t.index {
		t.visit(v)
	}
	return t
}

// visit explores everything reachable from root through unvisited
// vertices and labels comp for each component it completes.
func (t *tarjan) visit(root int) {
	if t.index[root] != unvisited {
		return
	}
	g := t.g
	t.discover(root)
	for len(t.frames) > 0 {
		f := &t.frames[len(t.frames)-1]
		v := f.v
		if f.edge < g.succOff[v+1] {
			w := g.succ[f.edge]
			f.edge++
			if t.index[w] == unvisited {
				t.discover(w)
			} else if t.index[w] < t.low[v] {
				t.low[v] = t.index[w]
			}
			continue
		}
		t.frames = t.frames[:len(t.frames)-1]
		if len(t.frames) > 0 {
			if p := t.frames[len(t.frames)-1].v; t.low[v] < t.low[p] {
				t.low[p] = t.low[v]
			}
		}
		if t.low[v] != t.index[v] {
			continue
		}
		// v roots a component: everything above it on the stack.
		k := len(t.stack) - 1
		for t.stack[k] != v {
			k--
		}
		id := -1
		if len(t.stack)-k > 1 {
			id = t.ncomp
			t.ncomp++
		}
		for _, w := range t.stack[k:] {
			t.index[w], t.comp[w] = finished, id
		}
		t.stack = t.stack[:k]
	}
}

func (t *tarjan) discover(v int) {
	t.index[v], t.low[v] = t.next, t.next
	t.next++
	t.stack = append(t.stack, v)
	t.frames = append(t.frames, tarjanFrame{v: v, edge: t.g.succOff[v]})
}

// intHeap is a min-heap of transaction indices.
type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// breakCycles picks vertices to abort until none of the others lies on a
// cycle, and returns them in the order chosen. t holds the components of
// the whole graph.
//
// The rule is greedy: abort the vertex on a cycle with the highest
// degree, where degree counts its successor and predecessor entries that
// themselves lie on a cycle — in any component, not only its own — and
// ties go to the latest arrival (aborting the youngest equally-entangled
// transaction preserves more of the earlier-submitted work). It is
// applied incrementally: removing a victim re-examines only the victim's
// own component, because no other vertex's component can change and
// every path between two members of a component stays inside it, and
// degrees are kept current by decrement. The cost follows the shrinking
// components, not victims × batch.
func breakCycles(t *tarjan) (aborted []int) {
	g := t.g
	ncyclic := 0
	for _, c := range t.comp {
		if c >= 0 {
			ncyclic++
		}
	}
	if ncyclic == 0 {
		return nil
	}
	// cyclic lists, ascending, the vertices on a cycle (comp >= 0); rest
	// is the victim's component without the victim.
	cyclic := make([]int, 0, ncyclic)
	rest := make([]int, 0, ncyclic)
	aborted = make([]int, 0, ncyclic)
	deg := make([]int, g.n)
	for v, c := range t.comp {
		if c < 0 {
			continue
		}
		cyclic = append(cyclic, v)
		for _, w := range g.Succ(v) {
			if t.comp[w] >= 0 {
				deg[v]++
			}
		}
		for _, w := range g.predOf(v) {
			if t.comp[w] >= 0 {
				deg[v]++
			}
		}
	}
	// leave takes v out of the cyclic set. Only degrees of vertices
	// still in it are ever read, so the others may go stale.
	leave := func(v int) {
		t.comp[v] = -1
		for _, w := range g.Succ(v) {
			deg[w]--
		}
		for _, w := range g.predOf(v) {
			deg[w]--
		}
	}
	for len(cyclic) > 0 {
		victim := cyclic[0]
		for _, v := range cyclic[1:] {
			if deg[v] >= deg[victim] {
				victim = v
			}
		}
		aborted = append(aborted, victim)
		// The victim stays finished, so the re-run never enters it.
		rest = rest[:0]
		for _, v := range cyclic {
			if v != victim && t.comp[v] == t.comp[victim] {
				rest = append(rest, v)
				t.index[v] = unvisited
			}
		}
		leave(victim)
		for _, v := range rest {
			t.visit(v)
		}
		for _, v := range rest {
			if t.comp[v] < 0 {
				leave(v)
			}
		}
		live := cyclic[:0]
		for _, v := range cyclic {
			if t.comp[v] >= 0 {
				live = append(live, v)
			}
		}
		cyclic = live
	}
	return aborted
}

// Schedule runs the Fabric++-style conflict-aware pass over one batch:
// it builds the precedence graph, aborts transactions on unresolvable
// read-write cycles (see breakCycles for the victim rule), and returns
// the survivors in a topological order with no intra-block read-write
// conflict left among them. The order is the lexicographically smallest
// topological order by arrival index, so identical input sequences
// always produce identical blocks, and a conflict-free batch comes back
// exactly FIFO. Aborted indices are returned ascending.
func Schedule(rws []RW, participates []bool) (order []int, aborted []int) {
	g := BuildGraph(rws, participates)
	aborted = breakCycles(components(g))
	removed := make([]bool, g.n)
	for _, v := range aborted {
		removed[v] = true
	}

	// Kahn's algorithm with a min-index heap: deterministic, FIFO when
	// unconstrained.
	indeg := make([]int, g.n)
	for u := 0; u < g.n; u++ {
		if removed[u] {
			continue
		}
		for _, w := range g.Succ(u) {
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
		for _, w := range g.Succ(u) {
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
