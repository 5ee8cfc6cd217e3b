package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// specFile is the benchmark's contract, read from the working
// directory: the root of the checkout.
const specFile = "BENCHMARK.json"

// bounded is one metric's entry in BENCHMARK.json; per-layer metrics
// carry no bound.
type bounded struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the benchmark itself reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []bounded `json:"end_to_end"`
	PerLayer []bounded `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// checkMetrics reports how a run's metrics differ from the list the
// contract promises for its mode: every listed metric, nothing else,
// in the listed unit.
func checkMetrics(listed []bounded, got map[string]metric) error {
	for _, m := range listed {
		g, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("%s lists %s but the run did not report it", specFile, m.Name)
		}
		if g.Unit != m.Unit {
			return fmt.Errorf("%s lists %s in %s but the run reported %s", specFile, m.Name, m.Unit, g.Unit)
		}
	}
	if len(got) != len(listed) {
		known := make(map[string]bool, len(listed))
		for _, m := range listed {
			known[m.Name] = true
		}
		for name := range got {
			if !known[name] {
				return fmt.Errorf("the run reported %s, which %s does not list", name, specFile)
			}
		}
	}
	return nil
}

// Verdicts of one (metric, workload) pair.
const (
	verdictWithin     = "within-bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (exclusive method).
func spread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((quartile(3) - quartile(1)) / med)
}

// judge compares set b against set a for one metric: unresolved when
// either set's own run-to-run spread is wider than the bound (the sets
// cannot tell a change of that size from noise), regressed when b's
// median is worse than a's by more than the bound, else within-bound.
func judge(m bounded, a, b []float64) string {
	if spread(a) > m.Bound || spread(b) > m.Bound {
		return verdictUnresolved
	}
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return verdictRegressed
	}
	return verdictWithin
}

// readResults loads the untraced runs of a -results file, grouped by
// workload then metric.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var res record
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if res.Trace != 0 {
			continue
		}
		if !res.Correct {
			return nil, fmt.Errorf("%s:%d: run of %s seed %d was not correct", path, line, res.Workload, res.Seed)
		}
		byMetric := out[res.Workload]
		if byMetric == nil {
			byMetric = make(map[string][]float64)
			out[res.Workload] = byMetric
		}
		for name, m := range res.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints a verdict for every (end-to-end metric, workload)
// pair and reports whether all of them are within bound.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	sp, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	allWithin := true
	fmt.Fprintf(w, "%-16s %-22s %12s %8s %12s %8s %7s  %s\n", "workload", "metric", "median a", "spread", "median b", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a[wl.name][m.Name], b[wl.name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("no runs of %s with %s in both files", wl.name, m.Name)
			}
			verdict := judge(m, va, vb)
			allWithin = allWithin && verdict == verdictWithin
			fmt.Fprintf(w, "%-16s %-22s %12.5g %7.2f%% %12.5g %7.2f%% %6.0f%%  %s\n",
				wl.name, m.Name, median(va), 100*spread(va), median(vb), 100*spread(vb), 100*m.Bound, verdict)
		}
	}
	return allWithin, nil
}
