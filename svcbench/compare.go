package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// runRecord is one line of a run-set file: what -out appends after every
// run.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// benchSpec is the part of BENCHMARK.json the comparator needs.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts, per the measuring rules the README cites.
const (
	verdictImproved   = "improved"
	verdictNoWorse    = "no worse"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// side summarises one set of runs of one metric.
type side struct {
	vals        []float64
	med, q1, q3 float64
}

func summarise(vals []float64) side {
	q1, q3 := quartiles(vals)
	return side{vals: vals, med: median(vals), q1: q1, q3: q3}
}

// comparison is the comparator's finding for one workload × metric.
type comparison struct {
	base, change side
	wins, pairs  int
	verdict      string
}

// compareMetric judges change against base. worse(a, b) reports whether
// b reads worse than a in the metric's direction. A gain needs the
// change to win nine tenths of the pairs (ties count for neither) and
// the medians to differ by more than the base's own quartile distance;
// a spread wider than the bound leaves the metric unresolved unless
// every change run beats every base run; otherwise the median may
// worsen by at most the bound.
func compareMetric(base, change []float64, pairs [][2]float64, m metricSpec) comparison {
	b, c := summarise(base), summarise(change)
	better := func(a, x float64) bool { // x better than a
		if m.Better == "higher" {
			return x > a
		}
		return x < a
	}
	cmp := comparison{base: b, change: c, pairs: len(pairs)}
	for _, p := range pairs {
		if better(p[0], p[1]) {
			cmp.wins++
		}
	}
	allBetter := len(base) > 0 && len(change) > 0
	for _, x := range change {
		for _, a := range base {
			if !better(a, x) {
				allBetter = false
			}
		}
	}
	worseBy := (c.med - b.med) / math.Abs(b.med)
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	baseSpread := (b.q3 - b.q1) / math.Abs(b.med)
	changeSpread := (c.q3 - c.q1) / math.Abs(c.med)
	switch {
	case cmp.pairs > 0 && float64(cmp.wins) >= 0.9*float64(cmp.pairs) &&
		better(b.med, c.med) && math.Abs(c.med-b.med) > b.q3-b.q1:
		cmp.verdict = verdictImproved
	case math.Max(baseSpread, changeSpread) > m.Bound && !allBetter:
		cmp.verdict = verdictUnresolved
	case worseBy > m.Bound:
		cmp.verdict = verdictWorse
	default:
		cmp.verdict = verdictNoWorse
	}
	return cmp
}

// readRuns loads the untraced records of a run-set file.
func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r runRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// pairUp matches base and change runs of one workload: by seed where
// both sides ran it, then the rest in file order.
func pairUp(base, change []runRecord, metric string) [][2]float64 {
	used := make([]bool, len(change))
	var pairs [][2]float64
	var loose []runRecord
	for _, a := range base {
		found := false
		for j, c := range change {
			if !used[j] && c.Seed == a.Seed {
				used[j], found = true, true
				pairs = append(pairs, [2]float64{a.Result.Metrics[metric].Value, c.Result.Metrics[metric].Value})
				break
			}
		}
		if !found {
			loose = append(loose, a)
		}
	}
	j := 0
	for _, a := range loose {
		for j < len(change) && used[j] {
			j++
		}
		if j == len(change) {
			break
		}
		used[j] = true
		pairs = append(pairs, [2]float64{a.Result.Metrics[metric].Value, change[j].Result.Metrics[metric].Value})
	}
	return pairs
}

// runCompare is the `compare` subcommand: it prints, per workload ×
// end-to-end metric, each side's median and quartiles, the pairs the
// change won and the verdict.
func runCompare(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metrics and their bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [-benchmark BENCHMARK.json] <base.jsonl> <change.jsonl>")
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	base, err := readRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := readRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	byWorkload := func(rs []runRecord) map[string][]runRecord {
		m := map[string][]runRecord{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	bw, cw := byWorkload(base), byWorkload(change)
	var workloads []string
	for name := range bw {
		if _, ok := cw[name]; ok {
			workloads = append(workloads, name)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		return fmt.Errorf("no workload has runs on both sides")
	}
	fmt.Fprintf(w, "%-9s %-14s %-6s %28s %28s %6s  %s\n", "workload", "metric", "unit",
		"base median [q1, q3]", "change median [q1, q3]", "won", "verdict")
	for _, name := range workloads {
		for _, m := range spec.EndToEnd {
			values := func(rs []runRecord) []float64 {
				var v []float64
				for _, r := range rs {
					if mv, ok := r.Result.Metrics[m.Name]; ok {
						v = append(v, mv.Value)
					}
				}
				return v
			}
			bv, cv := values(bw[name]), values(cw[name])
			if len(bv) == 0 || len(cv) == 0 {
				continue
			}
			c := compareMetric(bv, cv, pairUp(bw[name], cw[name], m.Name), m)
			fmt.Fprintf(w, "%-9s %-14s %-6s %28s %28s %6s  %s\n", name, m.Name, m.Unit,
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.base.med, c.base.q1, c.base.q3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.change.med, c.change.q1, c.change.q3),
				fmt.Sprintf("%d/%d", c.wins, c.pairs), c.verdict)
		}
	}
	return nil
}
