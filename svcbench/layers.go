package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/activation"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/tensor"
)

// layerMetric documents one per-layer metric: its unit, the span it is
// measured under, and the end-to-end metric it should move.
type layerMetric struct {
	name, unit, parent, moves, flat string
}

// Routes replayed one layer down, in the order they are reported.
var replayRoutes = []string{"bounds", "inject", "eval", "worstcase", "montecarlo",
	"networks_post", "networks_get", "healthz", "jobs_post", "jobs_get"}

// storeSizes are the artifact counts the store layer is timed at: two
// fixed sizes and the count every ingest round ends at.
var storeSizes = []int{100, ingestEndSize, 1000}

// layerTable lists every per-layer metric a traced run prints.
func layerTable() []layerMetric {
	const (
		campaignMoves = "cpu_ms_per_op (work_per_s) on campaign"
		queryMoves    = "cpu_ms_per_op (p50_ms, max_rps) on query"
		ingestMoves   = "cpu_ms_per_op (p50_ms, p99_ms) on ingest"
	)
	t := []layerMetric{
		{"tensor.lanes_matvec_ns", "ns", "fault.worstcase", campaignMoves, "query, ingest"},
		{"tensor.lanes_matvec_bytes", "bytes", "fault.worstcase", campaignMoves, "query, ingest"},
		{"tensor.csr_gather_ns", "ns", "fault.montecarlo", campaignMoves, "query, ingest"},
		{"tensor.csr_gather_bytes", "bytes", "fault.montecarlo", campaignMoves, "query, ingest"},
		{"activation.eval_ns", "ns", "fault.montecarlo", campaignMoves, "query, ingest"},
	}
	for _, m := range []string{"graph", "dense"} {
		t = append(t,
			layerMetric{"fault.worstcase_setup_ms." + m, "ms", "jobs.run", campaignMoves, "query"},
			layerMetric{"fault.worstcase_run_ms." + m, "ms", "jobs.run", campaignMoves, "query"},
			layerMetric{"fault.visited." + m, "count", "fault.worstcase", campaignMoves, "query"},
			layerMetric{"fault.pruned." + m, "count", "fault.worstcase", campaignMoves, "query"},
			layerMetric{"fault.prune_ratio." + m, "ratio", "fault.worstcase", campaignMoves, "query"})
	}
	t = append(t,
		layerMetric{"fault.batch_us", "us", "fault.montecarlo", campaignMoves, "ingest"},
		layerMetric{"fault.lane_fill", "ratio", "fault.montecarlo", campaignMoves, "ingest"},
		layerMetric{"fault.compiled_plan_us", "us", "serve.inject", "cpu_ms_per_op (inject p50) on query", "ingest"},
		layerMetric{"parallel.speedup", "ratio", "fault.worstcase", "nothing at -workers 1; work_per_s on campaign with more workers", "query"},
		layerMetric{"core.certifier_ns", "ns", "serve.bounds", queryMoves, "campaign"},
		layerMetric{"core.nodeshape_ns", "ns", "serve.bounds", queryMoves, "campaign"},
		layerMetric{"core.allocs_per_query", "count", "serve.bounds", queryMoves, "campaign"},
	)
	for _, r := range replayRoutes {
		moves, flat := queryMoves, "campaign"
		switch r {
		case "networks_post", "networks_get", "healthz":
			moves = ingestMoves
		case "worstcase", "montecarlo", "jobs_post", "jobs_get":
			moves, flat = "cpu_ms_per_op (p50_ms, work_per_s) on campaign", "query, ingest"
		}
		t = append(t,
			layerMetric{"serve.handler_us." + r, "us", "loopback", moves, flat},
			layerMetric{"serve.self_us." + r, "us", "loopback", moves, flat},
			layerMetric{"serve.resp_bytes." + r, "bytes", "loopback", moves, flat})
	}
	t = append(t,
		layerMetric{"serve.cache_miss_ms", "ms", "serve.bounds", "cpu_ms_per_op, rss_mb (p99_ms) on ingest", "query"},
		layerMetric{"http.shell_us", "us", "loopback", queryMoves, "campaign"},
		layerMetric{"jobs.queue_wait_ms", "ms", "serve.jobs", campaignMoves, "query"},
		layerMetric{"jobs.run_s", "s", "serve.jobs", campaignMoves, "query"},
		layerMetric{"jobs.overhead_ms", "ms", "serve.jobs", campaignMoves, "query"},
		layerMetric{"jobs.checkpoints_per_job", "count", "serve.jobs", campaignMoves, "query"},
		layerMetric{"jobs.checkpoint_ms", "ms", "jobs.run", campaignMoves, "query"},
		layerMetric{"jobs.retries", "count", "serve.jobs", campaignMoves, "query"},
		layerMetric{"jobs.rejected", "count", "serve.jobs", campaignMoves, "query"},
	)
	for _, n := range storeSizes {
		sfx := fmt.Sprintf(".n%d", n)
		t = append(t,
			layerMetric{"store.put_ms" + sfx, "ms", "serve.networks_post", ingestMoves + "; setup_s everywhere", "query"},
			layerMetric{"store.resolve_us" + sfx, "us", "serve.bounds", ingestMoves, "query"},
			layerMetric{"store.resolve_miss_ms" + sfx, "ms", "serve.bounds", ingestMoves, "query"},
			layerMetric{"store.list_ms" + sfx, "ms", "serve.networks_get", ingestMoves, "query"},
			layerMetric{"store.models_ms" + sfx, "ms", "serve.healthz", ingestMoves, "query"},
			layerMetric{"store.manifest_bytes" + sfx, "bytes", "store.put", ingestMoves, "query"})
	}
	return append(t,
		layerMetric{"trace.p50_ms", "ms", "loopback", "nothing: traced minus untraced p50 is the tracing overhead", "every workload"},
		layerMetric{"trace.untraced_p50_ms", "ms", "loopback", "nothing: traced minus untraced p50 is the tracing overhead", "every workload"})
}

// suite replays sampled requests one layer down at a time: loopback to
// the binary, the in-process handler, the job tier, the engine or
// pricer call, the kernel, and the store. Every replay of one input
// shares a request ID; its spans name their parent layer.
type suite struct {
	rc      *runCtx
	tr      *Tracer
	srv     *server
	conn    *client
	inproc  *serve.Server
	handler http.Handler
	twin    *store.Store // the store the lower layers replay against
	mgr     *jobs.Manager
	pool1   *parallel.Pool
	pool2   *parallel.Pool
	byID    map[string]*fixture
	vals    map[string]float64
}

// runTraced repeats the workload with request spans on, runs the layer
// replays and returns the per-layer metrics.
func runTraced(rc *runCtx, name string, untraced map[string]metricValue) (map[string]metricValue, error) {
	tr := NewTracer()
	rc.out.note("---- traced pass ----")
	rc.tr = tr
	traced, err := workloads[name](rc)
	rc.tr = nil
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	s, err := newSuite(rc, tr)
	if err != nil {
		return nil, err
	}
	defer s.close()
	s.vals["trace.p50_ms"] = traced["p50_ms"].Value
	s.vals["trace.untraced_p50_ms"] = untraced["p50_ms"].Value
	for _, step := range []func() error{s.routes, s.jobTier, s.engines, s.kernels, s.pricers, s.cacheMiss, s.storeSizes} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	dir := filepath.Join(filepath.Dir(rc.work), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, rc.seed))
	if err := tr.Write(path); err != nil {
		return nil, err
	}
	rc.out.note("---- per-layer metrics (%d spans written to %s) ----", len(tr.Spans()), path)
	for _, k := range []string{"p50_ms", "job_p50_s"} {
		if t, ok := traced[k]; ok {
			rc.out.note("tracing overhead on %s: traced %.4g %s vs untraced %.4g %s", k, t.Value, t.Unit, untraced[k].Value, t.Unit)
		}
	}
	out := map[string]metricValue{}
	for _, m := range layerTable() {
		v, ok := s.vals[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		out[m.name] = metricValue{v, m.unit}
		rc.out.note("%-34s %14.6g %-6s parent=%-20s moves %s; flat on %s", m.name, v, m.unit, m.parent, m.moves, m.flat)
	}
	return out, nil
}

func newSuite(rc *runCtx, tr *Tracer) (*suite, error) {
	s := &suite{rc: rc, tr: tr, vals: map[string]float64{}, byID: map[string]*fixture{},
		pool1: parallel.NewPool(1), pool2: parallel.NewPool(2)}
	for _, fx := range rc.ws {
		s.byID[fx.id] = fx
	}
	var err error
	if s.srv, err = startServer(rc.bin, rc.storeDir("layers-loopback"), serverProcs, campaignJobWorkers); err != nil {
		s.close()
		return nil, err
	}
	s.conn = newClient(s.srv.base)
	st, err := store.Open(filepath.Join(rc.work, "layers-inproc"))
	if err != nil {
		s.close()
		return nil, err
	}
	if s.inproc, err = serve.New(serve.Config{Store: st, Workers: serverProcs, JobWorkers: campaignJobWorkers}); err != nil {
		s.close()
		return nil, err
	}
	s.handler = s.inproc.Handler()
	if s.twin, err = store.Open(filepath.Join(rc.work, "layers-twin")); err != nil {
		s.close()
		return nil, err
	}
	if s.mgr, err = jobs.New(jobs.Config{Store: s.twin, Exec: s.directExec, Workers: campaignJobWorkers}); err != nil {
		s.close()
		return nil, err
	}
	for _, name := range sortedKeys(rc.ws) {
		fx := rc.ws[name]
		if _, err := s.twin.PutModel(fx.model, nil); err != nil {
			s.close()
			return nil, err
		}
		if err := s.replayOnce("upload", http.MethodPost, "/v1/networks", fx.doc, http.StatusCreated); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *suite) close() {
	if s.conn != nil {
		s.conn.close()
	}
	if s.srv != nil {
		s.srv.stop() //nolint:errcheck // replays are over; a failed drain changes no metric
	}
	if s.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		s.mgr.Close(ctx) //nolint:errcheck // best effort on the way out
		cancel()
	}
	if s.inproc != nil {
		s.inproc.Close()
	}
	s.pool1.Close()
	s.pool2.Close()
}

// replayOnce sends one untimed request to both servers (set-up only).
func (s *suite) replayOnce(kind, method, path string, body []byte, want int) error {
	if err := roundTrip(s.conn, op{kind: kind, method: method, path: path, body: body, check: expectStatus(want)}); err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code != want {
		return fmt.Errorf("in-process %s: HTTP %d, want %d: %.200s", kind, rec.Code, want, rec.Body.Bytes())
	}
	return nil
}

// replayReq is one sampled request: the path may differ between the
// two servers (job IDs), the body may not.
type replayReq struct {
	method   string
	loopPath string
	inPath   string
	body     []byte
	want     int
}

// layerCall is the same input replayed one layer further down.
type layerCall struct {
	name string
	fn   func(k int) error
}

// replayed is what one replay of a route returned at the top two layers.
type replayed struct{ loop, in []byte }

// replay runs reps samples of a route: over loopback, through the
// in-process handler, then down the given layers, one span each.
func (s *suite) replay(route string, reps int, mk func(k int) replayReq, lower ...layerCall) ([]replayed, error) {
	var outs []replayed
	var handler, self, shell []float64
	for k := 0; k < reps; k++ {
		q := mk(k)
		req := fmt.Sprintf("%s/%d", route, k)
		t0 := time.Now()
		status, loopBody, err := s.conn.do(q.method, q.loopPath, q.body)
		t1 := time.Now()
		if err == nil && status != q.want {
			err = fmt.Errorf("HTTP %d, want %d: %.200s", status, q.want, loopBody)
		}
		if err != nil {
			return nil, fmt.Errorf("replay %s over loopback: %w", route, err)
		}
		lb := s.tr.Record("loopback", req, 0, t0, t1)
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(q.method, q.inPath, bytes.NewReader(q.body))
		t0 = time.Now()
		s.handler.ServeHTTP(rec, r)
		t1 = time.Now()
		if rec.Code != q.want {
			return nil, fmt.Errorf("replay %s in-process: HTTP %d, want %d: %.200s", route, rec.Code, q.want, rec.Body.Bytes())
		}
		parent := s.tr.Record("serve."+route, req, lb, t0, t1)
		for _, c := range lower {
			t0 = time.Now()
			err := c.fn(k)
			t1 = time.Now()
			if err != nil {
				return nil, fmt.Errorf("replay %s at %s: %w", route, c.name, err)
			}
			parent = s.tr.Record(c.name, req, parent, t0, t1)
		}
		outs = append(outs, replayed{loop: loopBody, in: rec.Body.Bytes()})
	}
	spans := s.tr.Spans()
	for _, sp := range spans {
		if !strings.HasPrefix(sp.Req, route+"/") {
			continue
		}
		switch sp.Name {
		case "loopback":
			shell = append(shell, us(selfTime(sp, spans)))
		case "serve." + route:
			handler = append(handler, us(sp.Dur()))
			self = append(self, us(selfTime(sp, spans)))
		}
	}
	s.vals["serve.handler_us."+route] = median(handler)
	s.vals["serve.self_us."+route] = median(self)
	s.vals["serve.resp_bytes."+route] = float64(len(outs[len(outs)-1].loop))
	if route == "bounds" {
		s.vals["http.shell_us"] = median(shell)
	}
	return outs, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spanMedian is the median duration of the named spans, in ms.
func (s *suite) spanMedian(name string) float64 {
	var v []float64
	for _, sp := range s.tr.Spans() {
		if sp.Name == name {
			v = append(v, ms(sp.Dur()))
		}
	}
	return median(v)
}

// routes replays every route of the table.
func (s *suite) routes() error {
	ws := s.rc.ws
	dense, sparse := ws[fxDense], ws[fxSparse]
	gen, err := newQueryGen(ws, s.rc.seed)
	if err != nil {
		return err
	}
	post := func(path string, body []byte, want int) func(int) replayReq {
		return func(int) replayReq {
			return replayReq{method: http.MethodPost, loopPath: path, inPath: path, body: body, want: want}
		}
	}
	get := func(path string) func(int) replayReq {
		return func(int) replayReq {
			return replayReq{method: http.MethodGet, loopPath: path, inPath: path, want: http.StatusOK}
		}
	}

	faults := []int{2, 1}
	bq := gen.boundsOp(dense)
	if _, err := s.replay("bounds", 300, post("/v1/bounds", bq.body, http.StatusOK),
		layerCall{"core.certifier", func(int) error { dense.expectBounds(faults, 1, 2, 0.05); return nil }}); err != nil {
		return err
	}

	model, params := crashParams(dense.model)
	inj, err := model.New(params)
	if err != nil {
		return err
	}
	cp := fault.Compile(dense.model, fault.AdversarialNeuronPlan(dense.model, ones(dense.shape.Layers())))
	traces := fault.CleanTraces(dense.model, standardInputs(dense.model))
	if _, err := s.replay("inject", 40, post("/v1/inject", mustJSON(map[string]any{"network_id": dense.id, "faults": 1}), http.StatusOK),
		layerCall{"fault.compiled_plan", func(int) error {
			parallel.MaxFloat64(len(traces), func(i int) float64 { return cp.ErrorOnTrace(inj, traces[i]) })
			return nil
		}}); err != nil {
		return err
	}
	s.vals["fault.compiled_plan_us"] = 1000 * s.spanMedian("fault.compiled_plan")

	inputs := [][]float64{{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}, {0.7, 0.8}}
	if _, err := s.replay("eval", 200, post("/v1/eval", mustJSON(map[string]any{"network_id": dense.id, "inputs": inputs}), http.StatusOK),
		layerCall{"nn.forward", func(int) error { nn.ForwardBatchModel(dense.model, inputs); return nil }}); err != nil {
		return err
	}

	wc := campaignJob(ws, s.rc.seed, 2) // the dense search: the layered engine on lanes
	wcReq := mustJSON(map[string]any{"network_id": wc.fx.id, "faults": wc.faults, "inputs": wc.inputs})
	lanes := newLanesKernel(dense.model.(*nn.Network))
	if _, err := s.replay("worstcase", 3, post("/v1/worstcase", wcReq, http.StatusOK),
		layerCall{"fault.worstcase", func(int) error {
			_, _, err := wc.fx.expectWorstCase(context.Background(), s.pool2, wc.faults, wc.inputs)
			return err
		}},
		layerCall{"tensor.lanes_matvec", func(int) error { lanes.run(1); return nil }}); err != nil {
		return err
	}

	mc := campaignJob(ws, s.rc.seed, 3) // the sparse profile: CSR lane kernels
	mcReq := mustJSON(map[string]any{"network_id": mc.fx.id, "faults": mc.faults, "inputs": mc.inputs, "c": mc.c, "trials": mc.trials, "seed": mc.seed})
	mcTraces := fault.CleanTraces(sparse.model, mc.inputs)
	gather, err := newGatherKernel(sparse.model.(*graph.Net), 2)
	if err != nil {
		return err
	}
	if _, err := s.replay("montecarlo", 3, post("/v1/montecarlo", mcReq, http.StatusOK),
		layerCall{"fault.montecarlo", func(int) error {
			_, err := monteCarloErrors(context.Background(), s.pool2, sparse.model, mc.faults, mc.c, mcTraces, mc.trials, mc.seed, nil)
			return err
		}},
		layerCall{"tensor.csr_gather", func(int) error { gather.run(1); return nil }}); err != nil {
		return err
	}

	docs := make([]*fixture, 40)
	for i := range docs {
		if docs[i], err = ingestDoc(s.rc.seed, 1000, i); err != nil {
			return err
		}
	}
	if _, err := s.replay("networks_post", len(docs), func(k int) replayReq {
		return replayReq{method: http.MethodPost, loopPath: "/v1/networks", inPath: "/v1/networks", body: docs[k].doc, want: http.StatusCreated}
	}, layerCall{"store.put", func(k int) error {
		_, err := s.twin.PutModel(docs[k].model, nil)
		return err
	}}); err != nil {
		return err
	}
	if _, err := s.replay("networks_get", 100, get("/v1/networks"), layerCall{"store.models", func(int) error { s.twin.Models(); return nil }}); err != nil {
		return err
	}
	if _, err := s.replay("healthz", 100, get("/healthz"), layerCall{"store.models", func(int) error { s.twin.Models(); s.mgr.Stats(); return nil }}); err != nil {
		return err
	}

	jobBody := func(k int) []byte {
		return mustJSON(map[string]any{"kind": "bounds", "request": map[string]any{"network_id": dense.id, "faults": 1, "eps": 1 + float64(k)/1000}})
	}
	var mgrIDs []string
	posted, err := s.replay("jobs_post", 50, func(k int) replayReq {
		return replayReq{method: http.MethodPost, loopPath: "/v1/jobs", inPath: "/v1/jobs", body: jobBody(k), want: http.StatusAccepted}
	}, layerCall{"jobs.submit", func(k int) error {
		rec, err := s.mgr.Submit("bounds", requestOf(jobBody(k)), "")
		mgrIDs = append(mgrIDs, rec.ID)
		return err
	}})
	if err != nil {
		return err
	}
	ids := func(body []byte) string {
		var rec jobRecord
		json.Unmarshal(body, &rec) //nolint:errcheck // a malformed record fails the GET below
		return rec.ID
	}
	_, err = s.replay("jobs_get", len(posted), func(k int) replayReq {
		return replayReq{method: http.MethodGet, loopPath: "/v1/jobs/" + ids(posted[k].loop), inPath: "/v1/jobs/" + ids(posted[k].in), want: http.StatusOK}
	}, layerCall{"jobs.get", func(k int) error {
		_, err := s.mgr.Get(mgrIDs[k])
		return err
	}})
	return err
}

// requestOf extracts the request document of a job submission the
// benchmark built.
func requestOf(submission []byte) json.RawMessage {
	var body struct {
		Request json.RawMessage `json:"request"`
	}
	if err := json.Unmarshal(submission, &body); err != nil {
		panic(fmt.Sprintf("svcbench: own job document: %v", err))
	}
	return body.Request
}

// directExec is the replay job tier's Exec: the engine call alone,
// with none of the service's resolution, checkpointing or memo.
func (s *suite) directExec(t *jobs.Task) (any, error) {
	var req struct {
		NetworkID string          `json:"network_id"`
		Faults    json.RawMessage `json:"faults"`
		Inputs    [][]float64     `json:"inputs"`
		C         float64         `json:"c"`
		Trials    int             `json:"trials"`
		Seed      uint64          `json:"seed"`
		Eps       float64         `json:"eps"`
	}
	if err := json.Unmarshal(t.Request(), &req); err != nil {
		return nil, err
	}
	fx := s.byID[req.NetworkID]
	if fx == nil {
		return nil, fmt.Errorf("unknown network %s", req.NetworkID)
	}
	faults := ones(fx.shape.Layers())
	if req.Faults[0] == '[' {
		if err := json.Unmarshal(req.Faults, &faults); err != nil {
			return nil, err
		}
	}
	switch t.Kind() {
	case "worstcase":
		a, _, err := fx.expectWorstCase(t.Ctx(), s.pool2, faults, req.Inputs)
		return a, err
	case "montecarlo":
		return fx.expectMonteCarlo(t.Ctx(), s.pool2, faults, req.C, req.Inputs, req.Trials, req.Seed)
	default:
		return fx.expectBounds(faults, 1, req.Eps, 0), nil
	}
}

// waitJob polls get until the record is terminal.
func waitJob(get func() (jobRecord, error)) (jobRecord, error) {
	for deadline := time.Now().Add(2 * time.Minute); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		rec, err := get()
		if err != nil {
			return rec, err
		}
		switch rec.State {
		case "done":
			return rec, nil
		case "failed", "cancelled":
			return rec, fmt.Errorf("job %s: %s: %s", rec.ID, rec.State, rec.Error)
		}
	}
	return jobRecord{}, fmt.Errorf("job did not finish within 2m")
}

// jobTier runs one cycle of the campaign's jobs three ways: through the
// in-process service, through a job manager whose Exec calls the engine
// directly, and as the bare engine call.
func (s *suite) jobTier() error {
	var queue, run, overhead, checkpoints []float64
	retries := 0
	for j := 0; j < 4; j++ {
		spec := campaignJob(s.rc.ws, s.rc.seed, 100+j)
		req := fmt.Sprintf("job/%d", j)
		rec := httptest.NewRecorder()
		s.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(spec.body)))
		var sub jobRecord
		if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil || rec.Code != http.StatusAccepted {
			return fmt.Errorf("in-process job submit: HTTP %d: %.200s", rec.Code, rec.Body.Bytes())
		}
		svc, err := waitJob(func() (jobRecord, error) {
			rec := httptest.NewRecorder()
			s.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+sub.ID, nil))
			var r jobRecord
			return r, json.Unmarshal(rec.Body.Bytes(), &r)
		})
		if err != nil {
			return err
		}
		top := s.tr.Record("serve.jobs", req, 0, svc.Created, svc.Finished)
		checkpoints = append(checkpoints, float64(svc.Checkpoints))
		retries += svc.Attempts - 1

		mrec, err := s.mgr.Submit(spec.kind, requestOf(spec.body), "")
		if err != nil {
			return err
		}
		mr, err := waitJob(func() (jobRecord, error) {
			r, err := s.mgr.Get(mrec.ID)
			return jobRecord{ID: r.ID, State: string(r.State), Error: r.Error, Created: r.Created, Started: r.Started, Finished: r.Finished}, err
		})
		if err != nil {
			return err
		}
		mid := s.tr.Record("jobs.run", req, top, mr.Started, mr.Finished)
		t0 := time.Now()
		if _, err := s.directExecSpec(spec); err != nil {
			return err
		}
		engine := time.Since(t0)
		s.tr.Record("fault.engine", req, mid, t0, t0.Add(engine))
		queue = append(queue, ms(mr.Started.Sub(mr.Created)))
		run = append(run, mr.Finished.Sub(mr.Started).Seconds())
		overhead = append(overhead, ms(mr.Finished.Sub(mr.Started)-engine))
	}
	s.vals["jobs.queue_wait_ms"] = median(queue)
	s.vals["jobs.run_s"] = median(run)
	s.vals["jobs.overhead_ms"] = median(overhead)
	s.vals["jobs.checkpoints_per_job"] = median(checkpoints)
	s.vals["jobs.retries"] = float64(retries)
	s.vals["jobs.rejected"] = 0 // the replay keeps at most one job queued

	errs := make([]float64, 2048)
	for i := range errs {
		errs[i] = float64(i) / 2048
	}
	doc := map[string]any{"completed": len(errs), "errs": errs}
	var times []float64
	for k := 0; k < 20; k++ {
		t0 := time.Now()
		if err := s.twin.PutJobCheckpoint(fmt.Sprintf("%016x", k+1), doc); err != nil {
			return err
		}
		times = append(times, ms(time.Since(t0)))
	}
	s.vals["jobs.checkpoint_ms"] = median(times)
	return nil
}

// directExecSpec runs a campaign job's engine call in-process.
func (s *suite) directExecSpec(spec jobSpec) (any, error) {
	if spec.kind == "montecarlo" {
		return spec.fx.expectMonteCarlo(context.Background(), s.pool2, spec.faults, spec.c, spec.inputs, spec.trials, spec.seed)
	}
	a, _, err := spec.fx.expectWorstCase(context.Background(), s.pool2, spec.faults, spec.inputs)
	return a, err
}

// engines times the worst-case engine's set-up and search on both
// campaign shapes, its two-worker speedup, one batched sweep, and the
// lane fill of the Monte Carlo jobs.
func (s *suite) engines() error {
	for _, c := range []struct {
		name string
		job  int
	}{{"graph", 0}, {"dense", 2}} {
		spec := campaignJob(s.rc.ws, s.rc.seed, c.job)
		var setup, run []float64
		var res fault.ExhaustiveResult
		for k := 0; k < 3; k++ {
			t0 := time.Now()
			w, err := fault.NewWorstCase(spec.fx.model, spec.faults, spec.inputs, fault.WorstCaseOptions{Prune: true, Pool: s.pool2})
			if err != nil {
				return err
			}
			t1 := time.Now()
			if res, err = w.Run(context.Background()); err != nil {
				return err
			}
			setup = append(setup, ms(t1.Sub(t0)))
			run = append(run, ms(time.Since(t1)))
		}
		s.vals["fault.worstcase_setup_ms."+c.name] = median(setup)
		s.vals["fault.worstcase_run_ms."+c.name] = median(run)
		s.vals["fault.visited."+c.name] = float64(res.Visited)
		s.vals["fault.pruned."+c.name] = float64(res.Pruned)
		s.vals["fault.prune_ratio."+c.name] = float64(res.Pruned) / float64(res.Configurations)
		if c.name == "graph" {
			var one []float64
			for k := 0; k < 3; k++ {
				w, err := fault.NewWorstCase(spec.fx.model, spec.faults, spec.inputs, fault.WorstCaseOptions{Prune: true, Pool: s.pool1})
				if err != nil {
					return err
				}
				t0 := time.Now()
				if _, err := w.Run(context.Background()); err != nil {
					return err
				}
				one = append(one, ms(time.Since(t0)))
			}
			s.vals["parallel.speedup"] = median(one) / median(run)
		}
	}

	spec := campaignJob(s.rc.ws, s.rc.seed, 1) // the dense Monte Carlo profile
	m := spec.fx.model
	traces := fault.CleanTraces(m, spec.inputs)
	bp := fault.CompileBatch(m, fault.BatchLanes)
	var plans [fault.BatchLanes]fault.Plan
	var injs [fault.BatchLanes]fault.Injector
	var out [fault.BatchLanes]float64
	r := rng.New(s.rc.seed)
	for p := range plans {
		plans[p] = fault.RandomNeuronPlan(r, m, spec.faults)
		injs[p] = fault.Crash{}
	}
	bp.Reset(plans[:])
	var times []float64
	for k := 0; k < 50; k++ {
		t0 := time.Now()
		bp.ErrorsOnTraces(injs[:], traces, out[:])
		times = append(times, us(time.Since(t0)))
	}
	s.vals["fault.batch_us"] = median(times)

	var fill laneFill
	for _, j := range []int{1, 3} {
		mc := campaignJob(s.rc.ws, s.rc.seed, j)
		if _, err := monteCarloErrors(context.Background(), s.pool2, mc.fx.model, mc.faults, mc.c,
			fault.CleanTraces(mc.fx.model, mc.inputs), mc.trials, mc.seed, &fill); err != nil {
			return err
		}
	}
	s.vals["fault.lane_fill"] = fill.ratio()
	return nil
}

// lanesKernel is the dense layer-2 matrix applied to eight lanes.
type lanesKernel struct {
	m      *tensor.Matrix
	xs, ys [][]float64
}

func newLanesKernel(n *nn.Network) *lanesKernel {
	m := n.Hidden[len(n.Hidden)-1]
	k := &lanesKernel{m: m}
	r := rng.New(3)
	for l := 0; l < fault.BatchLanes; l++ {
		x := make([]float64, m.Cols)
		r.Floats(x, 0, 1)
		k.xs = append(k.xs, x)
		k.ys = append(k.ys, make([]float64, m.Rows))
	}
	return k
}

func (k *lanesKernel) run(n int) {
	for i := 0; i < n; i++ {
		k.m.MulVecLanesAddTo(k.ys, k.xs, nil)
	}
}

// bytes is the traffic one call moves: the matrix once, each lane's
// input and output once.
func (k *lanesKernel) bytes() float64 {
	return 8 * float64(k.m.Rows*k.m.Cols+len(k.xs)*(k.m.Rows+k.m.Cols))
}

// gatherKernel is one sparse level's CSR gather over eight lanes.
type gatherKernel struct {
	csr  tensor.CSR
	srcs [][][]float64
	ys   [][]float64
}

// newGatherKernel views level l of a layered sparse graph as the CSR
// block the engine gathers through.
func newGatherKernel(g *graph.Net, l int) (*gatherKernel, error) {
	lv := g.Levels[l-1]
	for _, sl := range lv.SrcLevel {
		if sl != l-1 {
			return nil, fmt.Errorf("level %d reads level %d; the kernel view needs a layered level", l, sl)
		}
	}
	prev := g.Width(l - 1)
	k := &gatherKernel{csr: tensor.CSR{Rows: lv.N, Ptr: lv.Ptr, Lvl: lv.SrcLevel, Idx: lv.SrcIdx, Col: lv.SrcIdx, W: lv.W, Cut: prev &^ 3}}
	r := rng.New(5)
	for lane := 0; lane < fault.BatchLanes; lane++ {
		levels := make([][]float64, l)
		levels[l-1] = make([]float64, prev)
		r.Floats(levels[l-1], 0, 1)
		k.srcs = append(k.srcs, levels)
		k.ys = append(k.ys, make([]float64, lv.N))
	}
	return k, nil
}

func (k *gatherKernel) run(n int) {
	for i := 0; i < n; i++ {
		k.csr.GatherLanesAddTo(k.ys, k.srcs, nil)
	}
}

// bytes is the traffic one call moves: the edge arrays once (weight,
// index, level, column), each lane's gathered sources and outputs.
func (k *gatherKernel) bytes() float64 {
	e := float64(len(k.csr.W))
	return 8*4*e + float64(len(k.ys))*8*(e+float64(k.csr.Rows))
}

// perCall times fn(n) several times and returns the median ns per call.
func perCall(n int, fn func(n int)) float64 {
	var v []float64
	for k := 0; k < 15; k++ {
		t0 := time.Now()
		fn(n)
		v = append(v, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(v)
}

// kernels times the tensor and activation kernels on the workloads'
// shapes.
func (s *suite) kernels() error {
	lanes := newLanesKernel(s.rc.ws[fxDense].model.(*nn.Network))
	s.vals["tensor.lanes_matvec_ns"] = perCall(2000, lanes.run)
	s.vals["tensor.lanes_matvec_bytes"] = lanes.bytes()
	gather, err := newGatherKernel(s.rc.ws[fxSparse].model.(*graph.Net), 2)
	if err != nil {
		return err
	}
	s.vals["tensor.csr_gather_ns"] = perCall(50, gather.run)
	s.vals["tensor.csr_gather_bytes"] = gather.bytes()
	src := make([]float64, 1024)
	rng.New(9).Floats(src, -4, 4)
	dst := make([]float64, len(src))
	act := s.rc.ws[fxSparse].model.Activation()
	s.vals["activation.eval_ns"] = perCall(2000, func(n int) {
		for i := 0; i < n; i++ {
			activation.Eval(act, dst, src)
		}
	})
	return nil
}

// pricers times one bounds query's certificate work on both algebras
// and counts its allocations.
func (s *suite) pricers() error {
	dense, g := s.rc.ws[fxDense], s.rc.ws[fxGraph]
	query := func(fx *fixture, faults, syn []int) {
		fx.cert.Fep(faults, 1)
		fx.cert.CrashFep(faults)
		fx.cert.SynapseFep(syn, 1)
		fx.cert.Tolerates(faults, 1, 2, 0.05)
		fx.cert.CrashTolerates(faults, 2, 0.05)
		fx.cert.RequiredSignals(faults)
	}
	df, dsyn := []int{2, 1}, []int{2, 1, 0}
	gf, gsyn := []int{2, 1}, []int{2, 1, 0}
	s.vals["core.certifier_ns"] = perCall(20000, func(n int) {
		for i := 0; i < n; i++ {
			query(dense, df, dsyn)
		}
	})
	s.vals["core.nodeshape_ns"] = perCall(20000, func(n int) {
		for i := 0; i < n; i++ {
			query(g, gf, gsyn)
		}
	})
	s.vals["core.allocs_per_query"] = testing.AllocsPerRun(1000, func() { query(dense, df, dsyn) })
	return nil
}

// cacheMiss times the first bounds query on stored but never queried
// networks: resolve, load, parse and build the serving state.
func (s *suite) cacheMiss() error {
	var times []float64
	for i := 0; i < 7; i++ {
		fx, err := newFixture("miss", nn.NewGlorot(rng.NewStream(s.rc.seed, uint64(i)), nn.Config{InputDim: 2, Widths: []int{16, 16}, Act: activation.NewSigmoid(1), Bias: true}))
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		s.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/networks", bytes.NewReader(fx.doc)))
		if rec.Code != http.StatusCreated {
			return fmt.Errorf("in-process upload: HTTP %d", rec.Code)
		}
		body := mustJSON(map[string]any{"network_id": fx.id, "faults": 1})
		rec = httptest.NewRecorder()
		t0 := time.Now()
		s.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/bounds", bytes.NewReader(body)))
		t1 := time.Now()
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process cold bounds: HTTP %d", rec.Code)
		}
		s.tr.Record("serve.bounds.cold", fmt.Sprintf("miss/%d", i), 0, t0, t1)
		times = append(times, ms(t1.Sub(t0)))
	}
	s.vals["serve.cache_miss_ms"] = median(times)
	return nil
}

// storeSizes grows a fresh store and times its calls at each size.
func (s *suite) storeSizes() error {
	st, err := store.Open(filepath.Join(s.rc.work, "layers-sizes"))
	if err != nil {
		return err
	}
	var ids []string
	doc := 0
	put := func() (time.Duration, error) {
		fx, err := ingestDoc(s.rc.seed, 2000, doc)
		doc++
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		e, err := st.PutModel(fx.model, nil)
		d := time.Since(t0)
		ids = append(ids, e.ID)
		return d, err
	}
	r := rng.New(s.rc.seed)
	for _, n := range storeSizes {
		for len(ids) < n {
			if _, err := put(); err != nil {
				return err
			}
		}
		sfx := fmt.Sprintf(".n%d", n)
		fi, err := os.Stat(filepath.Join(st.Root(), "manifest.json"))
		if err != nil {
			return err
		}
		s.vals["store.manifest_bytes"+sfx] = float64(fi.Size())
		var puts, res, miss, list, models []float64
		for k := 0; k < 5; k++ {
			d, err := put()
			if err != nil {
				return err
			}
			puts = append(puts, ms(d))
		}
		for k := 0; k < 200; k++ {
			id := ids[r.Intn(len(ids))]
			t0 := time.Now()
			if _, err := st.Resolve(store.ShortID(id)); err != nil {
				return err
			}
			res = append(res, us(time.Since(t0)))
		}
		for k := 0; k < 9; k++ {
			t0 := time.Now()
			if _, err := st.Resolve(fmt.Sprintf("%016x%048d", r.Uint64(), 0)); err == nil {
				return fmt.Errorf("a never-stored ID resolved")
			}
			miss = append(miss, ms(time.Since(t0)))
			t0 = time.Now()
			st.List("")
			list = append(list, ms(time.Since(t0)))
			t0 = time.Now()
			st.Models()
			models = append(models, ms(time.Since(t0)))
		}
		s.vals["store.put_ms"+sfx] = median(puts)
		s.vals["store.resolve_us"+sfx] = median(res)
		s.vals["store.resolve_miss_ms"+sfx] = median(miss)
		s.vals["store.list_ms"+sfx] = median(list)
		s.vals["store.models_ms"+sfx] = median(models)
	}
	return nil
}

// laneFill counts how full the batched evaluator's lanes ran.
type laneFill struct {
	mu           sync.Mutex
	lanes, slots int
}

func (f *laneFill) add(lanes int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lanes += lanes
	f.slots += fault.BatchLanes
}

func (f *laneFill) ratio() float64 {
	if f.slots == 0 {
		return math.NaN()
	}
	return float64(f.lanes) / float64(f.slots)
}
