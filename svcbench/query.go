package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
)

// Query workload shape.
const (
	// queryRate is the fixed offered rate of the open-loop phase, well
	// below capacity so that its latency is service time, not queueing.
	queryRate = 1000.0
	// queryLimitMs is the p99 latency limit the max-rate ladder holds.
	queryLimitMs = 10.0
	// ladderStepOps is the op count of one ladder step: enough for a
	// p99 with more than ten samples beyond it.
	ladderStepOps = 1200
	// setupRepeats is how many times a run sets the server up; setup_s
	// is their median.
	setupRepeats = 7
)

// Mix of the interactive stream, per 100 ops.
const (
	mixBounds = 88
	mixInject = 6
	mixEval   = 6
)

// injectTargets are the working-set models /v1/inject and /v1/eval
// address; the 1024-wide sparse graph is left to bounds, where only
// its certificate is priced.
var injectTargets = []string{fxDense, fxConv1D, fxConv2D, fxGraph}

// setupServer starts a server on a fresh store, uploads the fixtures
// (checking each returned ID against the content address) and warms the
// caches with warm. It repeats the whole set-up setupRepeats times and
// keeps the last server; setup_s is the median.
func setupServer(rc *runCtx, tag string, workers, jobWorkers int, fixtures []*fixture, warm func(c *client) error) (*server, float64, error) {
	var times []float64
	var srv *server
	for k := 0; k < setupRepeats; k++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		s, err := startServer(rc.bin, rc.storeDir(tag), workers, jobWorkers)
		if err != nil {
			return nil, 0, err
		}
		srv = s
		c := newClient(srv.base)
		var errs []error
		for _, fx := range fixtures {
			errs = appendErr(errs, roundTrip(c, op{kind: "upload", method: http.MethodPost, path: "/v1/networks", body: fx.doc,
				check: expectJSON(http.StatusCreated, struct {
					ID string `json:"id"`
				}{fx.id})}))
		}
		if len(errs) == 0 {
			errs = appendErr(errs, warm(c))
		}
		c.close()
		rc.out.count(len(fixtures)+1, errs)
		if len(errs) > 0 {
			srv.stop() //nolint:errcheck // the set-up failure is the error to report
			return nil, 0, fmt.Errorf("set-up: %v", errs[0])
		}
		times = append(times, time.Since(t0).Seconds())
	}
	rc.out.note("%-34s %v s (median of %d)", "set-ups", times, len(times))
	return srv, median(times), nil
}

func appendErr(errs []error, err error) []error {
	if err != nil {
		return append(errs, err)
	}
	return errs
}

// queryGen draws the interactive mix: its expected answers are computed
// as ops are drawn.
type queryGen struct {
	r       *rng.Rand
	ws      map[string]*fixture
	names   []string
	injects map[string]injectAnswer
	mix     []string
}

func newQueryGen(ws map[string]*fixture, seed uint64) (*queryGen, error) {
	g := &queryGen{r: rng.New(seed ^ 0x9e3779b97f4a7c15), ws: ws, injects: map[string]injectAnswer{},
		names: []string{fxDense, fxConv1D, fxConv2D, fxGraph, fxSparse}}
	for _, name := range injectTargets {
		fx := ws[name]
		a, err := fx.expectInject(ones(fx.shape.Layers()))
		if err != nil {
			return nil, err
		}
		g.injects[name] = a
	}
	return g, nil
}

func ones(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// next draws one op; the mix is a shuffled multiset per 100 ops, so
// every run sees the same proportions.
func (g *queryGen) next() op {
	if len(g.mix) == 0 {
		for i := 0; i < 100; i++ {
			switch {
			case i < mixBounds:
				g.mix = append(g.mix, "bounds")
			case i < mixBounds+mixInject:
				g.mix = append(g.mix, "inject")
			default:
				g.mix = append(g.mix, "eval")
			}
		}
		g.r.Shuffle(len(g.mix), func(i, j int) { g.mix[i], g.mix[j] = g.mix[j], g.mix[i] })
	}
	kind := g.mix[len(g.mix)-1]
	g.mix = g.mix[:len(g.mix)-1]
	switch kind {
	case "inject":
		fx := g.ws[injectTargets[g.r.Intn(len(injectTargets))]]
		return op{kind: kind, method: http.MethodPost, path: "/v1/inject",
			body:  mustJSON(map[string]any{"network_id": fx.id, "faults": 1}),
			check: expectJSON(http.StatusOK, g.injects[fx.name])}
	case "eval":
		fx := g.ws[injectTargets[g.r.Intn(len(injectTargets))]]
		inputs := metrics.RandomPoints(g.r, fx.model.Width(0), 4)
		return op{kind: kind, method: http.MethodPost, path: "/v1/eval",
			body: mustJSON(map[string]any{"network_id": fx.id, "inputs": inputs}),
			check: expectJSON(http.StatusOK, struct {
				Outputs []float64 `json:"outputs"`
			}{nn.ForwardBatchModel(fx.model, inputs)})}
	default:
		return g.boundsOp(g.ws[g.names[g.r.Intn(len(g.names))]])
	}
}

// boundsOp draws a tolerance query: a random fault distribution, cap
// and accuracy pair, so the certificate and required_signals run.
func (g *queryGen) boundsOp(fx *fixture) op {
	faults := make([]int, fx.shape.Layers())
	for l := range faults {
		faults[l] = g.r.Intn(min(fx.shape.Widths[l], 3) + 1)
	}
	c := []float64{0.5, 1, 2}[g.r.Intn(3)]
	eps := g.r.Range(0.5, 4)
	return op{kind: "bounds", method: http.MethodPost, path: "/v1/bounds",
		body:  mustJSON(map[string]any{"network_id": fx.id, "faults": faults, "c": c, "eps": eps, "eps_prime": 0.05}),
		check: expectJSON(http.StatusOK, fx.expectBounds(faults, c, eps, 0.05))}
}

func (g *queryGen) ops(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// runQuery is the interactive workload: a fixed-rate open-loop phase, a
// back-to-back saturation phase, then the max-rate ladder, all over two
// connections.
func runQuery(rc *runCtx) (map[string]metricValue, error) {
	gen, err := newQueryGen(rc.ws, rc.seed)
	if err != nil {
		return nil, err
	}
	var fixtures []*fixture
	for _, name := range gen.names {
		fixtures = append(fixtures, rc.ws[name])
	}
	warm := func(c *client) error {
		for _, name := range gen.names {
			if err := roundTrip(c, gen.boundsOp(rc.ws[name])); err != nil {
				return err
			}
		}
		for _, name := range injectTargets {
			fx := rc.ws[name]
			if err := roundTrip(c, op{kind: "inject", method: http.MethodPost, path: "/v1/inject",
				body:  mustJSON(map[string]any{"network_id": fx.id, "faults": 1}),
				check: expectJSON(http.StatusOK, gen.injects[name])}); err != nil {
				return err
			}
		}
		return nil
	}
	srv, setup, err := setupServer(rc, "query", serverProcs, 1, fixtures, warm)
	if err != nil {
		return nil, err
	}
	conns := []*client{newClient(srv.base), newClient(srv.base)}
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()

	fixedOps := gen.ops(max(windowSize, int(queryRate*float64(rc.seconds)/4)))
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		srv.stop() //nolint:errcheck // the read failure is the error to report
		return nil, err
	}
	rss := srv.sampleRSS()
	fixed := openLoop(conns, queryRate, fixedOps, rc.tr, "fixed")
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		srv.stop() //nolint:errcheck // the read failure is the error to report
		return nil, err
	}
	rc.out.metric("cpu_ms_per_op.fixed", 1000*(cpu1-cpu0)/float64(len(fixedOps)), "ms", "server CPU per request at the fixed rate, idle spinning included")
	var cpuPerOp float64
	rc.out.count(len(fixed.lat), fixed.failures)
	if !fixed.lagValid() {
		srv.stop() //nolint:errcheck // the invalid run is the error to report
		return nil, fmt.Errorf("generator lag %v exceeds the share allowed for a %v phase: run invalid", fixed.maxLag, fixed.span)
	}
	rc.out.note("%-34s rate=%g/s ops=%d generator_lag_max=%v backlog_end=%d", "fixed-rate phase", queryRate, len(fixed.lat), fixed.maxLag, fixed.backlog)
	lat, err := latencySummary(rc.out, "fixed-rate", fixed.lat)
	if err != nil {
		srv.stop() //nolint:errcheck // the short sample is the error to report
		return nil, err
	}
	byKind(rc.out, fixedOps, fixed.lat)
	rc.out.note("%-34s p50=%.4g ms, send to answer p50=%.4g ms", "generator lag", median(fixed.lags), median(fixed.rtt))

	// Saturation: both connections back to back. Server CPU per request
	// is measured here, where the runtime does not idle between requests.
	cpu0, err = srv.cpuSeconds()
	if err != nil {
		srv.stop() //nolint:errcheck // the read failure is the error to report
		return nil, err
	}
	satOps, satSecs, satErrs := closedLoop(conns, gen, time.Duration(rc.seconds)*time.Second/2)
	cpu1, err = srv.cpuSeconds()
	if err != nil {
		srv.stop() //nolint:errcheck // the read failure is the error to report
		return nil, err
	}
	rc.out.count(satOps, satErrs)
	cpuPerOp = 1000 * (cpu1 - cpu0) / float64(satOps)
	satRPS := float64(satOps) / satSecs
	// The ladder's length varies with the host, so memory is sampled
	// over the two fixed-length phases only.
	rssMB := median(rss.finish())

	ladder := ladderRates(1000, 30000)
	best, probed := searchLadder(len(ladder), func(i int) bool {
		// A failing step is run once more: one stall of the host must not
		// decide the capacity.
		for attempt := 0; attempt < 2; attempt++ {
			time.Sleep(50 * time.Millisecond) // let the previous step drain
			st := openLoop(conns, ladder[i], gen.ops(ladderStepOps), rc.tr, fmt.Sprintf("ladder%d.%d", i, attempt))
			rc.out.count(len(st.lat), st.failures)
			pass := stepPasses(st, queryLimitMs, len(conns))
			rc.out.note("%-34s rate=%g/s p99=%.4g ms backlog_end=%d lag_max=%v pass=%v", "ladder step", ladder[i],
				quantile(sortedCopy(st.lat), 0.99), st.backlog, st.maxLag, pass)
			if pass {
				return true
			}
		}
		return false
	})
	maxRPS := 0.0 // no ladder rate met the limit
	if best >= 0 {
		maxRPS = ladder[best]
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	rc.out.metric("setup_s", setup, "s", "start, upload and cache warm-up (median of set-ups)")
	rc.out.metric("p50_ms", lat.p50, "ms", "median latency from due time, fixed-rate mix")
	rc.out.metric("p90_ms", lat.p90, "ms", "p90 latency from due time, fixed-rate mix")
	rc.out.metric("p99_ms", lat.p99, "ms", "p99 latency from due time, fixed-rate mix")
	rc.out.metric("max_rps", maxRPS, "1/s", fmt.Sprintf("highest ladder rate with p99 <= %g ms and no growing backlog (%d steps)", queryLimitMs, len(probed)))
	rc.out.metric("saturated_rps", satRPS, "1/s", "requests per second with both connections back to back")
	rc.out.metric("cpu_ms_per_op", cpuPerOp, "ms", "server CPU per request at saturation")
	rc.out.metric("rss_mb", rssMB, "MiB", "server resident set, median of 50ms samples")
	return map[string]metricValue{
		"setup_s":       {setup, "s"},
		"p50_ms":        {lat.p50, "ms"},
		"p90_ms":        {lat.p90, "ms"},
		"p99_ms":        {lat.p99, "ms"},
		"work_per_s":    {satRPS, "1/s"},
		"cpu_ms_per_op": {cpuPerOp, "ms"},
		"rss_mb":        {rssMB, "MiB"},
	}, nil
}

// closedLoop keeps every connection busy with back-to-back ops drawn
// from gen for d, checking each answer. It returns the ops completed,
// the seconds taken and the failures.
func closedLoop(conns []*client, gen *queryGen, d time.Duration) (int, float64, []error) {
	var mu sync.Mutex
	var errs []error
	n := 0
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range conns {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				o := gen.next()
				mu.Unlock()
				err := roundTrip(c, o)
				mu.Lock()
				n++
				errs = appendErr(errs, err)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return n, time.Since(start).Seconds(), errs
}

// byKind reports the median and p99 of each op kind of a phase.
func byKind(r *report, ops []op, lat []float64) {
	groups := map[string][]float64{}
	for i, o := range ops {
		groups[o.kind] = append(groups[o.kind], lat[i])
	}
	for _, k := range sortedKeys(groups) {
		s := sortedCopy(groups[k])
		r.note("%-34s n=%d p50=%.4g ms p99=%.4g ms", "  "+k, len(s), quantile(s, 0.5), quantile(s, 0.99))
	}
}
