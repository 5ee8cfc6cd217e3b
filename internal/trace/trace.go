// Package trace is the low-overhead span subsystem threaded through the
// transaction lifecycle: the gateway mints one TraceID per logical
// submission, the ID rides the proposal/envelope wire format, and every
// layer (gateway stages, endorser execute, orderer ingress and cutter
// residency, Raft propose→commit, committer stages tagged with the
// block's gossip origin) records named spans against it. A nil *Tracer is a valid no-op, so
// instrumented call sites pay one pointer comparison when tracing is
// off — the default everywhere.
//
// The design follows Dapper (Sigelman et al., 2010) in spirit but not
// in scope: spans are flat (correlated by TraceID and ordered by start
// time, no parent pointers), retention is a bounded in-memory ring, and
// the only consumers are the in-process CriticalPath analyzer and the
// obs HTTP server's /traces endpoint.
package trace

import (
	"sort"
	"sync"
	"time"
)

// TraceID identifies one logical transaction submission end to end. A
// retried transaction keeps its TraceID across attempts (each attempt's
// fresh TxID is bound to the same trace), so one trace shows the whole
// client-visible story including backoff gaps.
type TraceID string

// Span is one named, timed segment of a trace recorded by one node.
// Start == End marks a point event.
type Span struct {
	TraceID TraceID           `json:"trace_id"`
	Name    string            `json:"name"`
	Node    string            `json:"node"`
	Start   time.Time         `json:"start"`
	End     time.Time         `json:"end"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Duration is the span's wall-clock extent.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Span names recorded by the instrumented layers. The gateway phase
// spans (propose/endorse/submit/commit-wait) partition the transaction's
// end-to-end wall time exactly — CriticalPath sums them back to the
// measured total. Everything else is detail nested inside those phases.
const (
	SpanGatewayPropose    = "gateway.propose"     // client CPU + proposal build
	SpanGatewayEndorse    = "gateway.endorse"     // endorsement round trip
	SpanGatewaySubmit     = "gateway.submit"      // broadcast until orderer ack
	SpanGatewayCommitWait = "gateway.commit-wait" // ack → commit event
	SpanEndorserExecute   = "endorser.execute"    // peer-side simulate + sign
	SpanOrdererIngress    = "orderer.ingress"     // broadcast handling → consenter accept
	SpanOrdererResidency  = "orderer.residency"   // cutter enqueue → batch cut
	SpanRaftConsensus     = "raft.consensus"      // leader propose → entry applied
	SpanCommitVSCC        = "commit.vscc"         // policy validation stage
	SpanCommitApply       = "commit.apply"        // MVCC + state apply stage
	SpanCommitAppend      = "commit.append"       // ledger append + events
)

// maxTracesDefault bounds retained traces; the oldest trace is evicted
// when a new one would exceed it.
const maxTracesDefault = 4096

// maxSpansPerTrace bounds one trace's span list against pathological
// recording loops.
const maxSpansPerTrace = 256

// Tracer collects spans keyed by TraceID with bounded retention. All
// methods are safe for concurrent use and safe on a nil receiver (no-op,
// which is how the whole stack runs with tracing disabled).
type Tracer struct {
	mu     sync.Mutex
	max    int
	traces map[TraceID]*traceEntry
	order  []TraceID // insertion order, for eviction
	seq    uint64    // TraceID mint counter
	alias  map[string]TraceID

	originMu sync.Mutex
	origins  map[originKey]origin
}

type traceEntry struct {
	spans   []Span
	dropped int
}

type originKey struct {
	channel string
	num     uint64
}

type origin struct {
	source string
	hops   int
}

// New returns a Tracer retaining up to maxTraces traces (0 = default).
func New(maxTraces int) *Tracer {
	if maxTraces <= 0 {
		maxTraces = maxTracesDefault
	}
	return &Tracer{
		max:     maxTraces,
		traces:  make(map[TraceID]*traceEntry),
		alias:   make(map[string]TraceID),
		origins: make(map[originKey]origin),
	}
}

// Enabled reports whether spans are being recorded. The nil receiver —
// the disabled state — returns false, so call sites can skip attribute
// construction entirely.
func (t *Tracer) Enabled() bool { return t != nil }

// Mint allocates a fresh TraceID seeded from the first attempt's
// transaction ID and binds that TxID to it.
func (t *Tracer) Mint(txID string) TraceID {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	t.seq++
	id := TraceID(txID)
	if _, taken := t.traces[id]; taken || id == "" {
		// TxIDs are unique in practice; keep a deterministic fallback.
		id = TraceID(txID + "#dup")
	}
	t.ensureLocked(id)
	t.alias[txID] = id
	t.mu.Unlock()
	return id
}

// Bind associates a (possibly retried) attempt's TxID with an existing
// trace so lookups by any attempt's TxID resolve.
func (t *Tracer) Bind(txID string, id TraceID) {
	if t == nil || id == "" || txID == "" {
		return
	}
	t.mu.Lock()
	t.ensureLocked(id)
	t.alias[txID] = id
	t.mu.Unlock()
}

// Lookup resolves a transaction ID (any attempt) to its TraceID.
func (t *Tracer) Lookup(txID string) (TraceID, bool) {
	if t == nil {
		return "", false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.alias[txID]
	return id, ok
}

// Record appends one finished span. Attrs are alternating key/value
// pairs; an odd trailing key is dropped. Unknown TraceIDs open a new
// trace (a span can arrive before the minting layer's own spans).
func (t *Tracer) Record(id TraceID, name, node string, start, end time.Time, attrs ...string) {
	if t == nil || id == "" {
		return
	}
	var m map[string]string
	if len(attrs) >= 2 {
		m = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			m[attrs[i]] = attrs[i+1]
		}
	}
	sp := Span{TraceID: id, Name: name, Node: node, Start: start, End: end, Attrs: m}
	t.mu.Lock()
	e := t.ensureLocked(id)
	if len(e.spans) >= maxSpansPerTrace {
		e.dropped++
	} else {
		e.spans = append(e.spans, sp)
	}
	t.mu.Unlock()
}

// ensureLocked returns the trace entry, creating (and evicting) as
// needed. Caller holds t.mu.
func (t *Tracer) ensureLocked(id TraceID) *traceEntry {
	if e, ok := t.traces[id]; ok {
		return e
	}
	if len(t.order) >= t.max {
		oldest := t.order[0]
		t.order = t.order[1:]
		delete(t.traces, oldest)
		// Drop aliases pointing at the evicted trace lazily: scanning the
		// alias map per eviction would be O(aliases); instead cap it.
		if len(t.alias) > 4*t.max {
			for k, v := range t.alias {
				if _, live := t.traces[v]; !live {
					delete(t.alias, k)
				}
			}
		}
	}
	e := &traceEntry{}
	t.traces[id] = e
	t.order = append(t.order, id)
	return e
}

// Spans returns a copy of the trace's spans sorted by start time.
func (t *Tracer) Spans(id TraceID) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	e, ok := t.traces[id]
	var out []Span
	if ok {
		out = append(out, e.spans...)
	}
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// TraceIDs lists retained traces oldest first.
func (t *Tracer) TraceIDs() []TraceID {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]TraceID(nil), t.order...)
	t.mu.Unlock()
	return out
}

// BlockOrigin notes how a block reached the trace peer (gossip push,
// anti-entropy, or direct deliver) so commit spans can carry the
// dissemination origin as attributes. First write wins: the trace
// peer's own ingest is recorded before any relayed duplicate.
func (t *Tracer) BlockOrigin(channel string, num uint64, source string, hops int) {
	if t == nil {
		return
	}
	t.originMu.Lock()
	k := originKey{channel, num}
	if _, ok := t.origins[k]; !ok {
		if len(t.origins) > 4*maxTracesDefault {
			// Bounded like traces; block numbers are monotone so a full
			// reset only loses attributes for in-flight commits.
			t.origins = make(map[originKey]origin)
		}
		t.origins[k] = origin{source: source, hops: hops}
	}
	t.originMu.Unlock()
}

// OriginOf reports a block's recorded dissemination origin.
func (t *Tracer) OriginOf(channel string, num uint64) (source string, hops int, ok bool) {
	if t == nil {
		return "", 0, false
	}
	t.originMu.Lock()
	o, ok := t.origins[originKey{channel, num}]
	t.originMu.Unlock()
	return o.source, o.hops, ok
}
