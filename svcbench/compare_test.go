package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func pairsOf(base, change []float64) [][2]float64 {
	var p [][2]float64
	for i := range base {
		p = append(p, [2]float64{base[i], change[i]})
	}
	return p
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "work_per_s", Better: "higher", Bound: 0.1}
	base := []float64{10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		m      metricSpec
		change []float64
		want   string
	}{
		{"faster on a lower-is-better metric", lower, scale(base, 0.8), verdictImproved},
		{"same distribution", lower, scale(base, 1.01), verdictNoWorse},
		{"slower beyond the bound", lower, scale(base, 1.3), verdictWorse},
		{"slower within the bound", lower, scale(base, 1.05), verdictNoWorse},
		{"higher throughput", higher, scale(base, 1.3), verdictImproved},
		{"lower throughput beyond the bound", higher, scale(base, 0.8), verdictWorse},
		{"spread wider than the bound", lower, []float64{5, 15, 6, 14, 7, 13, 8, 12, 9, 11}, verdictUnresolved},
	} {
		got := compareMetric(base, c.change, pairsOf(base, c.change), c.m)
		if got.verdict != c.want {
			t.Errorf("%s: verdict %q (wins %d/%d, medians %g vs %g), want %q", c.name, got.verdict,
				got.wins, got.pairs, got.base.med, got.change.med, c.want)
		}
	}
	// Nine tenths of the pairs is the bar for a gain: eight wins of ten
	// is not enough even when the median moved.
	change := scale(base, 0.8)
	change[0], change[1] = 20, 20
	if got := compareMetric(base, change, pairsOf(base, change), lower); got.verdict == verdictImproved {
		t.Errorf("8/10 pairs won was reported as improved")
	}
}

func TestRunCompareReadsRunSets(t *testing.T) {
	dir := t.TempDir()
	spec := map[string]any{"end_to_end": []map[string]any{{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}}}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	data, _ := json.Marshal(spec)
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, vals []float64) string {
		path := filepath.Join(dir, name)
		for i, v := range vals {
			rec := runRecord{Workload: "query", Seed: uint64(i + 1), Result: result{Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"p50_ms": {v, "ms"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		// Traced records carry per-layer metrics and are not compared.
		if err := appendRecord(path, runRecord{Workload: "query", Seed: 99, Trace: 1, Result: result{Metrics: map[string]metricValue{}}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", []float64{1, 1.01, 0.99, 1, 1.02})
	b := write("b.jsonl", []float64{0.5, 0.51, 0.49, 0.5, 0.52})
	var out bytes.Buffer
	if err := runCompare([]string{"-benchmark", specPath, a, b}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "query") || !strings.Contains(out.String(), "5/5") || !strings.Contains(out.String(), verdictImproved) {
		t.Errorf("compare output:\n%s", out.String())
	}
}
