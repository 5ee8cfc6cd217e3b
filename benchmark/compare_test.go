package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSpreadUsesPythonsExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1.0", got)
	}
	// statistics.quantiles([10, 11, 12, 13], n=4) == [10.25, 11.5, 12.75]
	if got, want := spread([]float64{10, 11, 12, 13}), 2.5/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(10..13) = %v, want %v", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	if got := spread([]float64{1, 1, 1, 1, 1}); got != 0 {
		t.Errorf("spread of a constant = %v, want 0", got)
	}
}

func TestJudge(t *testing.T) {
	lower := bounded{Name: "latency", Better: "lower", Bound: 0.10}
	higher := bounded{Name: "tps", Better: "higher", Bound: 0.05}
	steady := func(center float64) []float64 {
		return []float64{center * 0.995, center, center * 1.005, center * 0.998, center * 1.002}
	}
	noisy := []float64{60, 80, 100, 120, 140}
	for _, c := range []struct {
		name string
		m    bounded
		a, b []float64
		want string
	}{
		{"lower-better, slightly worse", lower, steady(100), steady(105), verdictWithin},
		{"lower-better, worse beyond the bound", lower, steady(100), steady(115), verdictRegressed},
		{"lower-better, improved", lower, steady(100), steady(60), verdictWithin},
		{"higher-better, slightly worse", higher, steady(300), steady(290), verdictWithin},
		{"higher-better, worse beyond the bound", higher, steady(300), steady(280), verdictRegressed},
		{"higher-better, improved", higher, steady(300), steady(400), verdictWithin},
		{"first set too noisy to tell", lower, noisy, steady(100), verdictUnresolved},
		{"second set too noisy to tell", lower, steady(100), noisy, verdictUnresolved},
		{"noise hides even a large regression", lower, steady(100), []float64{120, 160, 200, 240, 280}, verdictUnresolved},
	} {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// writeSet writes a -results file with runs of metric "tps" for every
// workload; regress lowers one workload's values by a fifth.
func writeSet(t *testing.T, path, regress string) {
	t.Helper()
	var buf bytes.Buffer
	for _, w := range workloads {
		for seed, v := range []float64{299, 300, 301, 300.5, 299.5} {
			if w.name == regress {
				v *= 0.8
			}
			line, err := json.Marshal(record{
				Workload: w.name, Seed: int64(seed + 1),
				result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"tps": {Value: v, Unit: "1/s"}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		// A traced run's line must not be mistaken for an end-to-end run.
		line, _ := json.Marshal(record{Workload: w.name, Trace: 1, result: result{Correct: true, Metrics: map[string]metric{"tps": {Value: 1}}}})
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[{"name":"tps","unit":"1/s","better":"higher","bound":0.05}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a, same, worse := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "same.jsonl"), filepath.Join(dir, "worse.jsonl")
	writeSet(t, a, "")
	writeSet(t, same, "")
	writeSet(t, worse, "and5_raft")

	var out bytes.Buffer
	ok, err := compareFiles(&out, spec, a, same)
	if err != nil || !ok {
		t.Fatalf("equal sets: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if n := strings.Count(out.String(), verdictWithin); n != len(workloads) {
		t.Errorf("equal sets: %d within-bound verdicts, want %d\n%s", n, len(workloads), out.String())
	}

	out.Reset()
	ok, err = compareFiles(&out, spec, a, worse)
	if err != nil || ok {
		t.Fatalf("regressed set: ok=%v err=%v, want a failing comparison\n%s", ok, err, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "and5_raft") != strings.Contains(line, verdictRegressed) {
			t.Errorf("only and5_raft should read regressed: %q", line)
		}
	}

	if _, err := compareFiles(&out, spec, a, filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("a missing results file must be an error")
	}
}

// The contract file and the code name the same workloads for the same
// reasons, and list every metric once.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", specFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%s lists %d workloads, the code has %d", specFile, len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || sp.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %s has %q (%q), the code has %q (%q)", i, specFile, sp.Workloads[i].Name, sp.Workloads[i].Why, w.name, w.why)
		}
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]bounded(nil), sp.EndToEnd...), sp.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("%s lists %s twice", specFile, m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestCheckMetrics(t *testing.T) {
	listed := []bounded{{Name: "a", Unit: "s"}, {Name: "b", Unit: "count"}}
	ok := map[string]metric{"a": {1, "s"}, "b": {2, "count"}}
	if err := checkMetrics(listed, ok); err != nil {
		t.Errorf("matching metrics: %v", err)
	}
	for name, got := range map[string]map[string]metric{
		"missing":    {"a": {1, "s"}},
		"extra":      {"a": {1, "s"}, "b": {2, "count"}, "c": {3, "s"}},
		"wrong unit": {"a": {1, "ms"}, "b": {2, "count"}},
	} {
		if err := checkMetrics(listed, got); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}
