// Command svcbench is the service benchmark: it starts the real
// `neurofail serve` binary against a fresh store, drives one named
// workload over loopback HTTP, checks every answer against in-process
// library calls, and prints the end-to-end metrics. With -trace 1 it
// also replays sampled requests one layer down at a time and prints the
// per-layer metrics. See README.md for the metrics and workloads.
//
//	svcbench -bin <neurofail> -work <dir> -workload query -seed 1 -seconds 12 -trace 0
//	svcbench compare [-benchmark BENCHMARK.json] <base.jsonl> <change.jsonl>
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clientProcs pins the benchmark process's own parallelism: it shares the host
// with the server, so it may not use more than the two vCPUs it has.
const clientProcs = 2

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runCtx is what every workload gets.
type runCtx struct {
	bin     string
	work    string // per-run scratch directory (stores)
	seed    uint64
	seconds int
	ws      map[string]*fixture
	out     *report
	tr      *Tracer // non-nil during the traced pass
	stores  int     // store directories handed out so far
}

// storeDir names a store directory no earlier server of the run used.
func (rc *runCtx) storeDir(tag string) string {
	rc.stores++
	return filepath.Join(rc.work, fmt.Sprintf("%s-store-%d", tag, rc.stores))
}

// report collects the human-readable lines printed above the result and
// the op accounting.
type report struct {
	lines     []string
	attempted int64
	failures  []error
	failed    int64
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// metric prints one named value with its unit and definition.
func (r *report) metric(name string, v float64, unit, def string) {
	r.note("%-34s %14.6g %-6s %s", name, v, unit, def)
}

// count books n attempted ops and the failures among them.
func (r *report) count(n int, errs []error) {
	r.attempted += int64(n)
	r.failed += int64(len(errs))
	r.failures = append(r.failures, errs...)
}

// workloadFunc runs one workload untraced and returns its end-to-end
// metrics.
type workloadFunc func(rc *runCtx) (map[string]metricValue, error)

var workloads = map[string]workloadFunc{
	"query":    runQuery,
	"campaign": runCampaign,
	"ingest":   runIngest,
}

// endToEnd lists the metrics the last line of an untraced run carries,
// with units: the ones BENCHMARK.json gates. The report above it prints
// the rest.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_mb", "MiB"},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "svcbench compare:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload to run: query, campaign, ingest, or all")
	seed := flag.Uint64("seed", 1, "workload seed: every request and document is generated from it")
	seconds := flag.Int("seconds", 12, "measuring time of one run")
	trace := flag.Int("trace", 0, "1 adds the traced pass and the per-layer replays")
	bin := flag.String("bin", "", "neurofail binary to serve with (required)")
	work := flag.String("work", "", "scratch directory for stores and traces (required)")
	out := flag.String("out", "", "optional run-set file: appends one JSON record per run, for compare")
	flag.Parse()
	runtime.GOMAXPROCS(min(clientProcs, runtime.NumCPU()))
	if err := run(*workload, *seed, *seconds, *trace, *bin, *work, *out); err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds, trace int, bin, work, out string) error {
	if bin == "" || work == "" {
		return errors.New("-bin and -work are required")
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("-seconds must be >= 1 and -trace 0 or 1")
	}
	names := []string{workload}
	if workload == "all" {
		names = []string{"query", "campaign", "ingest"}
	}
	for _, name := range names {
		if workloads[name] == nil {
			return fmt.Errorf("unknown workload %q (query, campaign, ingest, all)", name)
		}
	}
	ws, err := workingSet()
	if err != nil {
		return fmt.Errorf("working set: %w", err)
	}
	var last result
	for _, name := range names {
		res, err := runOne(name, seed, seconds, trace, bin, work, ws)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if out != "" {
			if err := appendRecord(out, runRecord{Workload: name, Seed: seed, Trace: trace, Result: res}); err != nil {
				return err
			}
		}
		if len(names) > 1 {
			line, _ := json.Marshal(res)
			fmt.Printf("result %s %s\n", name, line)
			last = mergeResults(last, name, res)
		} else {
			last = res
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runOne runs one workload in a fresh scratch directory and prints its
// report; the returned result is what the last line carries.
func runOne(name string, seed uint64, seconds, trace int, bin, work string, ws map[string]*fixture) (result, error) {
	dir := filepath.Join(work, fmt.Sprintf("%s-%d-%d", name, seed, time.Now().UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	rc := &runCtx{bin: bin, work: dir, seed: seed, seconds: seconds, ws: ws, out: &report{}}
	fmt.Printf("env %s\n", envStanza(seed))
	// Start from no dirty pages: an earlier run's writeback must not
	// compete with this one.
	syscall.Sync()
	steal0, total0 := hostCPU()
	metrics, err := workloads[name](rc)
	if err != nil {
		return result{}, err
	}
	if steal1, total1 := hostCPU(); total1 > total0 {
		rc.out.note("%-34s %.2f%% of host CPU time taken by other guests during the run", "steal", 100*(steal1-steal0)/(total1-total0))
	}
	gated := map[string]metricValue{}
	for _, m := range endToEnd {
		v, ok := metrics[m.name]
		if !ok || v.Unit != m.unit {
			return result{}, fmt.Errorf("end-to-end metric %s [%s] missing", m.name, m.unit)
		}
		gated[m.name] = v
	}
	res := result{Correct: true, Metrics: gated}
	if trace == 1 {
		res.Metrics, err = runTraced(rc, name, metrics)
		if err != nil {
			return result{}, err
		}
	}
	res.Attempted, res.Failed = rc.out.attempted, rc.out.failed
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", name, seed, seconds, trace)
	for _, l := range rc.out.lines {
		fmt.Println("  " + l)
	}
	for i, e := range rc.out.failures {
		if i == 10 {
			fmt.Printf("  ... %d more failures\n", len(rc.out.failures)-i)
			break
		}
		fmt.Printf("  FAIL %v\n", e)
	}
	fmt.Printf("  fail_ratio %.6g (%d of %d ops failed)\n", float64(res.Failed)/math.Max(1, float64(res.Attempted)), res.Failed, res.Attempted)
	return res, nil
}

// mergeResults folds one workload's result into the combined line of
// `-workload all`, prefixing metric names with the workload.
func mergeResults(acc result, name string, r result) result {
	if acc.Metrics == nil {
		acc = result{Correct: true, Metrics: map[string]metricValue{}}
	}
	acc.Correct = acc.Correct && r.Correct
	acc.Attempted += r.Attempted
	acc.Failed += r.Failed
	for k, v := range r.Metrics {
		acc.Metrics[name+"."+k] = v
	}
	return acc
}

func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// envStanza describes where the numbers were measured.
func envStanza(seed uint64) string {
	env := map[string]any{
		"nproc":             runtime.NumCPU(),
		"client_gomaxprocs": runtime.GOMAXPROCS(0),
		"server_gomaxprocs": serverProcs,
		"cpu":               cpuModel(),
		"go":                runtime.Version(),
		"commit":            commit(),
		"seed":              seed,
	}
	data, _ := json.Marshal(env)
	return string(data)
}

// hostCPU reads the steal and total jiffies of /proc/stat's cpu line:
// steal is time the hypervisor gave the host's CPUs to other guests,
// the usual reason two runs of identical code disagree.
func hostCPU() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// cpuModel reads the CPU model name (Linux), or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git when the working
// directory is a repository, without running git.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if data, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

// latencies is a windowed latency summary (see windowed).
type latencies struct{ p50, p90, p99 float64 }

// latencySummary books a latency sample into the report and returns
// its windowed percentiles.
func latencySummary(r *report, label string, lat []float64) (latencies, error) {
	p50, p90, p99, windows, err := windowed(lat)
	if err != nil {
		return latencies{}, fmt.Errorf("%s: %w", label, err)
	}
	s := sortedCopy(lat)
	hp := highestPercentile(len(s))
	r.note("%-34s n=%d windows=%d p50=%.4g p90=%.4g p99=%.4g ms (whole sample: p50=%.4g p99=%.4g p%g=%.4g max=%.4g ms)",
		label+" latency", len(s), windows, p50, p90, p99, quantile(s, 0.5), quantile(s, 0.99), 100*hp, quantile(s, hp), s[len(s)-1])
	return latencies{p50, p90, p99}, nil
}

// sortedKeys returns a map's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
