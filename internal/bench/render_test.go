package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"fabricsim/internal/metrics"
	"fabricsim/internal/workload"
)

// stubPoint stands in for a sweep point: it returns a synthetic Point
// without building a network and counts how often it was measured.
type stubPoint struct {
	p        Point
	measured *int
}

func (s stubPoint) measure(context.Context, Options) (Point, error) {
	*s.measured++
	return s.p, nil
}

// synthetic fills a Point the way the real measure functions do, with
// every value the columns read set to something non-zero.
func synthetic(t *testing.T, m measurer) Point {
	t.Helper()
	lat := metrics.LatencyStats{Count: 9, Avg: time.Second, P50: time.Second, P95: 2 * time.Second, P99: 3 * time.Second}
	sum := metrics.Summary{
		ExecuteTPS: 300, OrderTPS: 290, ValidateTPS: 280, RejectedCount: 2,
		TotalLatency: lat, ExecuteLatency: lat, OrderValidateLatency: lat, ValidateLatency: lat,
		VSCCStage: lat, ApplyStage: lat, AppendStage: lat, EndorseLatency: lat, CommitLag: lat,
		BlockTime: time.Second, AvgBlockSize: 80, AvgConflictGroups: 3, EndorseSkew: 1.1,
		AbortRate: 0.1, MVCCAborts: 4, EarlyAborts: 5, WastedValidateCPU: time.Second,
		MeanGossipHops: 1.5, AntiEntropyBlocks: 2,
		PhaseLatency: map[string]metrics.LatencyStats{},
	}
	for _, ph := range metrics.PhaseOrdering() {
		sum.PhaseLatency[ph] = lat
	}
	switch m := m.(type) {
	case PointConfig:
		return Point{
			Orderer: m.Orderer, Policy: m.PolicyLabel, Peers: m.Peers, OSNs: m.OSNs,
			Channels: max(m.Channels, 1), Rate: m.Rate, Window: m.Window,
			Summary: sum, Stats: workload.Stats{Submitted: 100, Succeeded: 90, Failed: 10},
			OrdererEgressBlocks: 40, OrdererEgressBytes: 1 << 20,
			Config: m,
		}
	case RecoveryPoint:
		return Point{Recovery: RecoveryPoint{Mode: m.Mode, Blocks: m.Blocks, TipHeight: uint64(m.Blocks)}}
	case chaosSoakPoint:
		win := ChaosWindow{Fault: "crash(org1-peer1)", Kind: "crash", PhaseP99S: phaseP99s(sum)}
		return Point{Chaos: &ChaosPoint{
			FaultKinds: []string{"crash"}, Timeline: []string{"+1s crash"},
			Windows: []ChaosWindow{win, win}, Soak: 6 * time.Second,
		}}
	}
	t.Fatalf("unknown point type %T", m)
	return Point{}
}

// stubbed replaces every point of e's sweeps with a stub that returns
// its synthetic Point and counts into measured.
func stubbed(t *testing.T, e Experiment, measured *int) Experiment {
	sweeps := make([]sweep, len(e.sweeps))
	for i, sw := range e.sweeps {
		sweeps[i] = sweep{sw.name, func(quick bool) []measurer {
			var ms []measurer
			for _, m := range sw.points(quick) {
				ms = append(ms, stubPoint{synthetic(t, m), measured})
			}
			return ms
		}}
	}
	e.sweeps = sweeps
	return e
}

// renderCases pins every experiment's layout. heads are the parent
// commit's fprintf header lines, in print order; seps and rows count
// the "-- label --" separators and body rows of the quick and the full
// sweep; keys is the parent's JSON struct tags (nil = no JSON file).
var renderCases = []struct {
	id                   string
	heads                []string
	quickSeps, quickRows int
	fullSeps, fullRows   int
	keys                 []string
}{
	{"fig2", []string{"orderer policy rate throughput rejected"}, 6, 18, 6, 54, nil},
	{"fig3", []string{"orderer policy rate avg p50 p95"}, 6, 18, 6, 54, nil},
	{"fig4", []string{"orderer rate execute order validate"}, 3, 9, 3, 27, nil},
	{"fig5", []string{"orderer rate execute order validate"}, 3, 9, 3, 27, nil},
	{"fig6", []string{"orderer rate execute(s) order&validate(s)"}, 3, 9, 3, 27, nil},
	{"fig7", []string{"orderer rate execute(s) order&validate(s)"}, 3, 9, 3, 27, nil},
	{"table2", []string{"#peers OR10 OR3 AND5 AND3"}, 0, 3, 0, 5, nil},
	{"table3", []string{
		"| Execute Latency (s) | Order & Validate Latency (s)",
		"#peers | OR10 OR3 AND5 AND3 | OR10 OR3 AND5 AND3",
	}, 0, 3, 0, 5, nil},
	{"fig8", []string{"orderer #osn throughput latency(s) blocktime(s)"}, 2, 8, 2, 12, nil},
	{"channels", []string{"#channels throughput execute(s) order&val(s) total(s) rejected"}, 0, 2, 0, 4, nil},
	{"pipeline", []string{
		"#inflight submitted throughput execute(s) total(s) rejected",
		"#inflight endorse(p50/p99) submit(p50/p99) order(p50/p99) validate(p50/p99)",
	}, 0, 6, 0, 14, nil},
	{"commit", []string{"pool depth throughput vscc(s) apply(s) append(s) groups validate(s)"}, 2, 4, 2, 12, nil},
	{"endorse", []string{"policy balancer reps/org throughput execute endorse p50 endorse p99 skew"}, 2, 4, 7, 26,
		[]string{"policy", "balancer", "replicas_per_org", "perturbed", "throughput_tps", "execute_tps",
			"endorse_p50_s", "endorse_p99_s", "endorse_skew"}},
	{"dissemination", []string{
		"mode peers throughput egr.blocks egr.MB hops ae.blocks lag p99(s)",
		"peers direct blocks gossip blocks ratio",
	}, 3, 6, 3, 12,
		[]string{"mode", "orgs", "peers", "throughput_tps", "orderer_egress_blocks", "orderer_egress_mb",
			"mean_gossip_hops", "anti_entropy_blocks", "commit_lag_p99_s"}},
	{"recovery", []string{"mode blocks start.height tip recover(s) persist snapboots"}, 3, 6, 3, 9,
		[]string{"mode", "blocks", "start_height", "tip_height", "recovery_s", "persistent", "snapshot_bootstraps"}},
	{"chaos", []string{
		"fault window kind start(s) end(s) committed tps commit-lag p99(s) " +
			"endorse-p99(s) submit-p99(s) order-p99(s) validate-p99(s)",
	}, 0, 2, 0, 2,
		[]string{"seed", "schedule_seed", "orgs", "replicas", "wan_matrix", "faults", "fault_kinds", "timeline",
			"windows", "overall_committed_tps", "commit_lag_p99_s", "reelections", "snapshot_bootstraps",
			"orderer_crashes", "broadcast_failovers", "lost_blocks", "duplicate_commits",
			"tip_converged", "state_converged", "chain_valid"}},
	{"contention", []string{
		"workload reord retry zipf throughput abort mvcc early wasted(s) cli-ok",
		"workload reord retry zipf endorse(p50/p99) submit(p50/p99) order(p50/p99) validate(p50/p99)",
	}, 2, 12, 2, 28,
		[]string{"workload", "zipf_s", "reorder", "retry", "throughput_tps", "abort_rate", "mvcc_aborts",
			"early_aborts", "wasted_validate_s", "client_success_rate", "phase_latency"}},
	{"batchsize", []string{"batchsize throughput latency(s) blocktime(s) txs/block"}, 0, 3, 0, 5, nil},
	{"batchtimeout", []string{"timeout(s) throughput latency(s) blocktime(s)"}, 0, 2, 0, 4, nil},
	{"txsize", []string{"bytes throughput latency(s)"}, 0, 2, 0, 4, nil},
}

// notBody are the line prefixes that are neither heading, separator nor
// body row: runner progress, notes, captions and the chaos report's
// free-form lines.
var notBody = []string{"[", "(", "critical-path phase latency", "seed=", "fault timeline", "  +", "overall:", "invariants:"}

func keySet(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sorted(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// TestRenderWithoutNetwork feeds every experiment synthetic points and
// checks the layout the one table writer and the one JSON writer
// produce against the parent commit's headers, separators and JSON keys.
func TestRenderWithoutNetwork(t *testing.T) {
	if len(renderCases) != len(All())+len(Ablations()) {
		t.Fatalf("%d render cases for %d experiments", len(renderCases), len(All())+len(Ablations()))
	}
	for _, tc := range renderCases {
		for _, quick := range []bool{true, false} {
			wantSeps, wantRows := tc.fullSeps, tc.fullRows
			if quick {
				wantSeps, wantRows = tc.quickSeps, tc.quickRows
			}
			e, ok := Get(tc.id)
			if !ok {
				t.Fatalf("no experiment %s", tc.id)
			}
			dir := t.TempDir()
			var out bytes.Buffer
			measured := 0
			if err := Run(context.Background(), []Experiment{stubbed(t, e, &measured)},
				Options{Quick: quick, JSONDir: dir}, &out); err != nil {
				t.Fatalf("%s: %v", tc.id, err)
			}
			_, body, ok := strings.Cut(out.String(), "\n"+strings.Repeat("=", len(e.Title))+"\n")
			if !ok {
				t.Fatalf("%s: no banner in:\n%s", tc.id, out.String())
			}
			var heads []string
			seps, rows := 0, 0
		lines:
			for _, line := range strings.Split(body, "\n") {
				if strings.TrimSpace(line) == "" {
					continue
				}
				for _, prefix := range notBody {
					if strings.HasPrefix(line, prefix) {
						continue lines
					}
				}
				fields := strings.Join(strings.Fields(line), " ")
				switch {
				case strings.HasPrefix(line, "-- "):
					seps++
				case contains(tc.heads, fields):
					if !contains(heads, fields) {
						heads = append(heads, fields)
					}
				default:
					rows++
				}
			}
			if !reflect.DeepEqual(heads, tc.heads) {
				t.Errorf("%s quick=%v: headings %q, want %q", tc.id, quick, heads, tc.heads)
			}
			if seps != wantSeps || rows != wantRows {
				t.Errorf("%s quick=%v: %d separators and %d rows, want %d and %d\n%s",
					tc.id, quick, seps, rows, wantSeps, wantRows, body)
			}

			raw, err := os.ReadFile(filepath.Join(dir, "BENCH_"+tc.id+".json"))
			if tc.keys == nil {
				if err == nil {
					t.Errorf("%s: wrote a JSON file, the parent wrote none", tc.id)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.id, err)
			}
			keys := make(map[string]any)
			if tc.id == "chaos" {
				if err := json.Unmarshal(raw, &keys); err != nil {
					t.Fatalf("chaos: %v", err)
				}
				win := keys["windows"].([]any)[0].(map[string]any)
				wantWin := []string{"commit_lag_p99_s", "committed_tps", "end_s", "fault", "kind", "phase_p99_s", "start_s"}
				if got := keySet(win); !reflect.DeepEqual(got, wantWin) {
					t.Errorf("chaos window keys %q, want %q", got, wantWin)
				}
			} else {
				var docs []map[string]any
				if err := json.Unmarshal(raw, &docs); err != nil {
					t.Fatalf("%s: %v", tc.id, err)
				}
				if len(docs) != measured {
					t.Errorf("%s: %d JSON rows for %d points", tc.id, len(docs), measured)
				}
				// Every row carries every key.
				keys = docs[0]
				for _, doc := range docs[1:] {
					if !reflect.DeepEqual(keySet(doc), keySet(keys)) {
						t.Errorf("%s quick=%v: JSON row keys %q differ from the first row's", tc.id, quick, keySet(doc))
					}
				}
			}
			if got := keySet(keys); !reflect.DeepEqual(got, sorted(tc.keys)) {
				t.Errorf("%s quick=%v: JSON keys %q, want %q", tc.id, quick, got, sorted(tc.keys))
			}
			if tc.id == "contention" {
				phases := keys["phase_latency"].(map[string]any)
				if got, want := keySet(phases), []string{"endorse", "order", "submit", "validate"}; !reflect.DeepEqual(got, want) {
					t.Errorf("phase_latency keys %q, want %q", got, want)
				}
				if got, want := keySet(phases["endorse"].(map[string]any)), []string{"p50_s", "p99_s"}; !reflect.DeepEqual(got, want) {
					t.Errorf("phase cell keys %q, want %q", got, want)
				}
			}
		}
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// TestPointCounts pins how many distinct points each experiment
// measures, full and quick: the point lists are the behaviour.
func TestPointCounts(t *testing.T) {
	want := map[string][2]int{
		"fig2": {54, 18}, "fig3": {54, 18},
		"fig4": {27, 9}, "fig5": {27, 9}, "fig6": {27, 9}, "fig7": {27, 9},
		"table2": {12, 10}, "table3": {12, 10}, "fig8": {12, 8},
		"channels": {4, 2}, "pipeline": {7, 3}, "commit": {12, 4}, "contention": {14, 6},
		"endorse": {26, 4}, "dissemination": {8, 4}, "recovery": {9, 6}, "chaos": {1, 1},
		"batchsize": {5, 3}, "batchtimeout": {4, 2}, "txsize": {4, 2},
	}
	exps := append(All(), Ablations()...)
	if len(exps) != len(want) {
		t.Fatalf("%d experiments, %d pinned", len(exps), len(want))
	}
	for i, quick := range []bool{false, true} {
		distinct := make(map[string]int)
		for _, e := range exps {
			n := 0
			for _, sw := range e.sweeps {
				distinct[sw.name] = len(sw.points(quick))
				n += distinct[sw.name]
			}
			if n != want[e.ID][i] {
				t.Errorf("%s quick=%v: %d points, want %d", e.ID, quick, n, want[e.ID][i])
			}
		}
		// Figs. 2-7 share one 54 / 18-point grid, Tables II-III one
		// 12 / 10-point grid: all 20 experiments measure this many
		// points, not the sum of the rows above.
		total := 0
		for _, n := range distinct {
			total += n
		}
		if wantTotal := []int{54 + 12 + 12 + 4 + 7 + 12 + 14 + 26 + 8 + 9 + 1 + 5 + 4 + 4, 18 + 10 + 8 + 2 + 3 + 4 + 6 + 4 + 4 + 6 + 1 + 3 + 2 + 2}[i]; total != wantTotal {
			t.Errorf("quick=%v: %d distinct points across all experiments, want %d", quick, total, wantTotal)
		}
	}
}

// TestSharedSweepMeasuredOnce runs experiments that read the same sweep
// in one invocation: each distinct point is measured once, and an
// experiment run alone measures only the sweep it reads.
func TestSharedSweepMeasuredOnce(t *testing.T) {
	for _, tc := range []struct {
		ids  string
		want int
	}{
		{"fig2,fig3,fig4", 54}, // 135 if each measured its own
		{"fig4", 27},
		{"fig5,fig7", 27},
		{"table2,table3", 12},
	} {
		measured := 0
		var exps []Experiment
		for _, id := range strings.Split(tc.ids, ",") {
			e, _ := Get(id)
			exps = append(exps, stubbed(t, e, &measured))
		}
		var out bytes.Buffer
		if err := Run(context.Background(), exps, Options{}, &out); err != nil {
			t.Fatal(err)
		}
		if measured != tc.want {
			t.Errorf("%s measured %d points, want %d", tc.ids, measured, tc.want)
		}
		for _, e := range exps {
			if !strings.Contains(out.String(), e.Title) {
				t.Errorf("%s: %s was not rendered", tc.ids, e.ID)
			}
		}
	}
}
