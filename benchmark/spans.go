package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fabricsim/internal/fabnet"
	"fabricsim/internal/gateway"
	"fabricsim/internal/trace"
	"fabricsim/internal/types"
)

// Names of the spans the benchmark records around its calls into the
// gateway layer. The root span covers one logical transaction, retries
// included; the others are its children.
const (
	spanTx      = "bench.tx"
	spanPropose = "gateway.Propose"
	spanEndorse = "gateway.Endorse"
	spanSubmit  = "gateway.Submit"
	spanStatus  = "gateway.Status"
	spanBackoff = "bench.backoff"
)

// span is one timed call. Spans of one logical transaction share Tx,
// the transaction ID of its first attempt; TxID is the attempt's own
// (left out of the span file where it equals Tx).
type span struct {
	ID      int64     `json:"id"`
	Parent  int64     `json:"parent,omitempty"`
	Tx      string    `json:"tx"`
	TxID    string    `json:"txid,omitempty"`
	Attempt int       `json:"attempt,omitempty"`
	Name    string    `json:"name"`
	Node    string    `json:"node,omitempty"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// spanRecorder keeps the benchmark's spans in memory until the run ends.
type spanRecorder struct {
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func (r *spanRecorder) id() int64 { return r.nextID.Add(1) }

func (r *spanRecorder) add(spans []span) {
	r.mu.Lock()
	r.spans = append(r.spans, spans...)
	r.mu.Unlock()
}

// stagedLane drives the gateway's staged API call by call, which is
// what lets the benchmark put its own span around each stage. The
// staged API has neither an in-flight window nor a retry loop, so the
// lane supplies both, with the workload's retry bounds.
type stagedLane struct {
	gw     *gateway.Gateway
	retry  bool
	rec    *spanRecorder // nil records nothing (the untraced reference)
	window chan struct{}
}

func stagedLanes(net *fabnet.Network, w workload, rec *spanRecorder) []lane {
	lanes := make([]lane, len(net.Gateways))
	for i, gw := range net.Gateways {
		lanes[i] = &stagedLane{gw: gw, retry: w.smallbank, rec: rec}
	}
	return lanes
}

func (l *stagedLane) setWindow(n int) { l.window = make(chan struct{}, n) }

func (l *stagedLane) begin(ctx context.Context, c call, wait bool) (func() txResult, error) {
	window := l.window
	if wait {
		select {
		case window <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	} else {
		select {
		case window <- struct{}{}:
		default:
			return nil, gateway.ErrWindowFull
		}
	}
	done := make(chan txResult, 1)
	go func() {
		defer func() { <-window }()
		done <- l.run(ctx, c)
	}()
	return func() txResult { return <-done }, nil
}

// run takes one logical transaction through Propose, Endorse, Submit
// and Status, re-running all four after a conflict abort.
func (l *stagedLane) run(ctx context.Context, c call) txResult {
	var spans []span
	root := span{Name: spanTx, Node: l.gw.ID(), Start: time.Now()}
	if l.rec != nil {
		root.ID = l.rec.id()
	}
	var res txResult
	for attempt := 1; ; attempt++ {
		var st *gateway.Status
		st, res.txID, res.err = l.attempt(ctx, c, root.ID, attempt, &spans)
		res.attempts = attempt
		if root.Tx == "" {
			root.Tx = string(res.txID)
		}
		res.kind, res.code = classify(st, res.err)
		if !l.retry || attempt >= retryAttempts || !gateway.Retryable(res.err) {
			break
		}
		// The gateway's exponential backoff, without its jitter.
		l.timed(&spans, span{Parent: root.ID, Attempt: attempt, Name: spanBackoff}, func() error {
			time.Sleep(time.Duration(float64(retryBackoff<<(attempt-1)) * timeScale))
			return nil
		})
	}
	res.done = time.Now()
	if l.rec != nil {
		root.End = res.done
		spans = append(spans, root)
		for i := range spans {
			spans[i].Tx, spans[i].Node = root.Tx, root.Node
		}
		l.rec.add(spans)
	}
	return res
}

// timed runs call and, when the lane records, appends s with the
// call's start and end to spans.
func (l *stagedLane) timed(spans *[]span, s span, call func() error) error {
	if l.rec == nil {
		return call()
	}
	s.ID, s.Start = l.rec.id(), time.Now()
	err := call()
	s.End = time.Now()
	*spans = append(*spans, s)
	return err
}

// attempt makes the four staged calls once, appending a span per call.
func (l *stagedLane) attempt(ctx context.Context, c call, parent int64, attempt int, spans *[]span) (*gateway.Status, types.TxID, error) {
	s := span{Parent: parent, Attempt: attempt, Name: spanPropose}
	var prop *gateway.Proposal
	err := l.timed(spans, s, func() (err error) {
		prop, err = l.gw.Propose(ctx, "", c.chaincode, c.fn, c.args)
		return err
	})
	if err != nil {
		return nil, "", err
	}
	txID := prop.TxID()
	s.TxID = string(txID)
	if l.rec != nil {
		(*spans)[len(*spans)-1].TxID = s.TxID
	}
	var txn *gateway.Transaction
	s.Name = spanEndorse
	if err := l.timed(spans, s, func() (err error) { txn, err = prop.Endorse(ctx); return err }); err != nil {
		return nil, txID, err
	}
	var cmt *gateway.Commit
	s.Name = spanSubmit
	if err := l.timed(spans, s, func() (err error) { cmt, err = txn.Submit(ctx); return err }); err != nil {
		return nil, txID, err
	}
	var st *gateway.Status
	s.Name = spanStatus
	err = l.timed(spans, s, func() (err error) { st, err = cmt.Status(context.Background()); return err })
	return st, txID, err
}

// mergeProgramSpans attaches the spans the program's own tracer
// recorded below the gateway (endorser, orderer, raft, committer) to
// the benchmark's spans: each becomes a child of the benchmark call of
// the same attempt that was running when it started, else of the
// transaction's root. The gateway's own boundary spans are left out —
// the benchmark's calls already cover them.
func mergeProgramSpans(rec *spanRecorder, tr *trace.Tracer) []span {
	calls := make(map[string][]span) // attempt TxID -> the benchmark's calls
	roots := make(map[string]int64)  // first-attempt TxID -> root span
	for _, s := range rec.spans {
		if s.Name == spanTx {
			roots[s.Tx] = s.ID
		} else if s.TxID != "" {
			calls[s.TxID] = append(calls[s.TxID], s)
		}
	}
	out := append([]span(nil), rec.spans...)
	for txID, own := range calls {
		tx := own[0].Tx
		for _, ps := range tr.Spans(trace.TraceID(txID)) {
			if strings.HasPrefix(ps.Name, "gateway.") {
				continue
			}
			parent := roots[tx]
			for _, c := range own {
				if !ps.Start.Before(c.Start) && ps.Start.Before(c.End) {
					parent = c.ID
					break
				}
			}
			out = append(out, span{
				ID: rec.id(), Parent: parent, Tx: tx, TxID: txID,
				Name: ps.Name, Node: ps.Node, Start: ps.Start, End: ps.End,
			})
		}
	}
	return out
}

// spanSelfTimes returns, per span name, each span's duration and self
// time in model seconds, for the spans whose transaction keep admits.
func spanSelfTimes(spans []span, keep func(tx string) bool) (durations, selves map[string][]float64) {
	children := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.interval())
		}
	}
	durations = make(map[string][]float64)
	selves = make(map[string][]float64)
	for _, s := range spans {
		if !keep(s.Tx) {
			continue
		}
		durations[s.Name] = append(durations[s.Name], modelSeconds(s.End.Sub(s.Start)))
		selves[s.Name] = append(selves[s.Name], modelSeconds(selfTime(s.interval(), children[s.ID])))
	}
	return durations, selves
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("span file: %w", err)
		}
	}()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if s.TxID == s.Tx {
			s.TxID = ""
		}
		if err := enc.Encode(&s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
