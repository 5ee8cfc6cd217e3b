package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"fabricsim/internal/fabnet"
	"fabricsim/internal/metrics"
	"fabricsim/internal/policy"
)

// measurer is one point of a sweep: a PointConfig (a load point), or
// one of the two measurements that are not load points (a recovery
// restart, the chaos soak).
type measurer interface {
	measure(ctx context.Context, opt Options) (Point, error)
}

func (pc PointConfig) measure(ctx context.Context, opt Options) (Point, error) {
	p, err := RunPoint(ctx, pc, opt)
	p.Config = pc
	return p, err
}

// sweep is a named list of points, PointConfigs but for the recovery
// and chaos sweeps. Run measures each name at most once per invocation,
// so experiments that read the same sweep (Figs. 2-7, Tables II-III)
// report different columns of the same runs.
type sweep struct {
	name   string
	points func(quick bool) []measurer
}

// ifElse returns yes when cond holds and no otherwise; sweeps use it to
// trim an axis in quick mode.
func ifElse[T any](cond bool, yes, no T) T {
	if cond {
		return yes
	}
	return no
}

// soloOR is the extension sweeps' shared topology: a Solo orderer and
// `peers` single-peer orgs under an OR policy, driven by `clients`
// client processes (0 = one per peer).
func soloOR(peers, clients int) PointConfig {
	return PointConfig{
		Orderer:     fabnet.Solo,
		OSNs:        1,
		Peers:       peers,
		Clients:     clients,
		Policy:      policy.OrOverPeers(peers),
		PolicyLabel: "OR",
	}
}

// column is one table column and, when key is set, one field of the
// experiment's JSON rows.
type column[R any] struct {
	// head is the column heading ("" keeps the column out of the table).
	head string
	// verb formats a cell; the heading is printed at the same width.
	verb string
	// key is the JSON field ("" keeps the column out of the JSON).
	key string
	val func(R) any
}

// table prints one row per element of rows.
type table[R any] struct {
	// caption is printed on its own line above the table.
	caption string
	cols    []column[R]
	// group labels a row; a "-- label --" separator and a fresh heading
	// are printed whenever the label changes.
	group func(R) string
}

// cellWidth matches the flags, width, precision and verb of a printf
// directive; the heading reuses flags and width with %s.
var cellWidth = regexp.MustCompile(`%(-?\d*)(\.\d+)?[a-z]`)

// write is the one table printer: headings, separators and rows.
func (t table[R]) write(w io.Writer, rows []R) {
	var cols []column[R]
	var verbs []string
	var heads []any
	for _, c := range t.cols {
		if c.head != "" {
			cols, verbs, heads = append(cols, c), append(verbs, c.verb), append(heads, c.head)
		}
	}
	rowFormat := strings.Join(verbs, " ") + "\n"
	headFormat := cellWidth.ReplaceAllString(rowFormat, "%${1}s")
	if t.caption != "" {
		fprintf(w, "%s\n", t.caption)
	}
	if t.group == nil {
		fprintf(w, headFormat, heads...)
	}
	last := ""
	for _, r := range rows {
		if t.group != nil && t.group(r) != last {
			last = t.group(r)
			fprintf(w, "\n-- %s --\n"+headFormat, append([]any{last}, heads...)...)
		}
		cells := make([]any, len(cols))
		for i, c := range cols {
			cells[i] = c.val(r)
		}
		fprintf(w, rowFormat, cells...)
	}
}

// Experiment is one runnable reproduction artifact: the sweeps it
// reads and how it lays their points out.
type Experiment struct {
	// ID is the experiment's name on the command line (README.md has
	// the index).
	ID string
	// Title is the artifact's caption, printed as the banner.
	Title string
	// note describes the fixed configuration under the banner.
	note string
	// sweeps are read in order; the experiment sees their points
	// concatenated.
	sweeps []sweep
	// tables print one row per point.
	tables []table[Point]
	// render prints a layout that is not one row per point (the pivots
	// of Tables II-III, the egress-ratio table, the chaos report).
	render func(w io.Writer, pts []Point)
	// document replaces the column-built rows as the JSON value.
	document func(pts []Point) any
}

// Run measures every sweep the experiments read, each once, and writes
// each experiment's tables to w and, with Options.JSONDir set, its rows
// to BENCH_<id>.json.
func Run(ctx context.Context, exps []Experiment, opt Options, w io.Writer) error {
	opt = opt.withDefaults()
	measured := make(map[string][]Point)
	for _, e := range exps {
		var pts []Point
		for _, sw := range e.sweeps {
			got, ok := measured[sw.name]
			if !ok {
				points := sw.points(opt.Quick)
				fprintf(w, "[measuring %s: %d points]\n", sw.name, len(points))
				for _, m := range points {
					p, err := m.measure(ctx, opt)
					if err != nil {
						return fmt.Errorf("%s: %w", e.ID, err)
					}
					got = append(got, p)
				}
				measured[sw.name] = got
			}
			pts = append(pts, got...)
		}
		fprintf(w, "\n%s\n%s\n%s", e.Title, strings.Repeat("=", len(e.Title)), e.note)
		for _, t := range e.tables {
			t.write(w, pts)
		}
		if e.render != nil {
			e.render(w, pts)
		}
		if opt.JSONDir != "" {
			if err := writeJSON(w, opt.JSONDir, e, pts); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeJSON is the one JSON writer: the experiment's document, or one
// object per point built from the keyed columns; experiments with
// neither leave no file.
func writeJSON(w io.Writer, dir string, e Experiment, pts []Point) error {
	var doc any
	if e.document != nil {
		doc = e.document(pts)
	} else {
		rows := make([]map[string]any, len(pts))
		for i, p := range pts {
			rows[i] = make(map[string]any)
			for _, t := range e.tables {
				for _, c := range t.cols {
					if c.key != "" {
						rows[i][c.key] = c.val(p)
					}
				}
			}
		}
		if len(rows) == 0 || len(rows[0]) == 0 {
			return nil
		}
		doc = rows
	}
	path := filepath.Join(dir, "BENCH_"+e.ID+".json")
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal %s points: %w", e.ID, err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	fprintf(w, "\n[machine-readable points written to %s]\n", path)
	return nil
}

// All returns every paper experiment in paper order, plus the channel
// sweep (the scaling dimension the paper's Fabric deployment uses but
// does not isolate).
func All() []Experiment {
	return []Experiment{
		fig2, fig3, fig4, fig5, fig6, fig7,
		table2, table3, fig8, figChannels, figPipeline,
		figCommit, figEndorse, figDissemination, figRecovery,
		figChaos, figContention,
	}
}

// Ablations returns the non-paper parameter studies (BatchSize,
// BatchTimeout, transaction size).
func Ablations() []Experiment {
	return []Experiment{
		ablationBatchSize, ablationBatchTimeout, ablationTxSize,
	}
}

// Get returns the experiment (paper or ablation) with the given ID.
func Get(id string) (Experiment, bool) {
	for _, e := range append(All(), Ablations()...) {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Describe returns a one-line summary of every experiment (CLI help).
func Describe() string {
	out := ""
	for _, e := range append(All(), Ablations()...) {
		out += fmt.Sprintf("  %-12s %s\n", e.ID, e.Title)
	}
	return out
}

// fprintf writes formatted output, ignoring the error like fmt.Printf.
func fprintf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// secs renders a duration in seconds with 2 decimals ("-" for zero).
func secs(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", d.Seconds())
}

// pcol is a table-only Point column.
func pcol(head, verb string, val func(Point) any) column[Point] {
	return column[Point]{head: head, verb: verb, val: val}
}

// keyed also writes column c to the JSON rows under key.
func keyed(key string, c column[Point]) column[Point] {
	c.key = key
	return c
}

// Columns several experiments show.
var (
	colOrderer    = pcol("orderer", "%-8s", func(p Point) any { return p.Orderer })
	colPolicy     = pcol("policy", "%-7s", func(p Point) any { return p.Policy })
	colRate       = pcol("rate", "%8.0f", func(p Point) any { return p.Rate })
	colRejected   = pcol("rejected", "%10d", func(p Point) any { return p.Summary.RejectedCount })
	colThroughput = pcol("throughput", "%12.1f", func(p Point) any { return p.Summary.ValidateTPS })
	colExecuteLat = pcol("execute(s)", "%12s", func(p Point) any { return secs(p.Summary.ExecuteLatency.Avg) })
	colTotalLat   = pcol("total(s)", "%12s", func(p Point) any { return secs(p.Summary.TotalLatency.Avg) })
	colLatency    = pcol("latency(s)", "%12s", func(p Point) any { return secs(p.Summary.TotalLatency.Avg) })
	colBlockTime  = pcol("blocktime(s)", "%12s", func(p Point) any { return secs(p.Summary.BlockTime) })
)

// phaseLatencyJSON flattens a summary's critical-path decomposition
// into JSON-ready per-phase p50/p99 cells (model seconds), keyed by
// lifecycle phase.
func phaseLatencyJSON(sum metrics.Summary) map[string]map[string]float64 {
	out := make(map[string]map[string]float64)
	for _, ph := range metrics.PhaseOrdering() {
		st := sum.PhaseLatency[ph]
		out[ph] = map[string]float64{"p50_s": st.P50.Seconds(), "p99_s": st.P99.Seconds()}
	}
	return out
}

// phaseTable renders the critical-path decomposition under its own
// caption: the given leading columns, then one "p50/p99" cell (model
// seconds) per lifecycle phase, in order.
func phaseTable(lead ...column[Point]) table[Point] {
	cols := append([]column[Point](nil), lead...)
	for _, ph := range metrics.PhaseOrdering() {
		cols = append(cols, pcol(ph+"(p50/p99)", "%15s", func(p Point) any {
			st := p.Summary.PhaseLatency[ph]
			return fmt.Sprintf("%.3f/%.3f", st.P50.Seconds(), st.P99.Seconds())
		}))
	}
	return table[Point]{caption: "\ncritical-path phase latency (model seconds):", cols: cols}
}
