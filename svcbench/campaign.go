package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// Campaign workload shape.
const (
	// campaignWorkers is the server's -workers: the engine pool a job
	// runs on.
	campaignWorkers = 1
	// campaignJobWorkers is the server's -job-workers and the most jobs
	// the benchmark keeps outstanding.
	campaignJobWorkers = 1
	// probeRate is the open-loop /v1/bounds probe stream beside the jobs.
	probeRate = 250.0
	// pollEvery is how often the benchmark polls an outstanding job.
	pollEvery = 3 * time.Millisecond
)

// jobSpec is one campaign job with what its answer must equal.
type jobSpec struct {
	kind   string // worstcase or montecarlo
	label  string // kind and model, for the report
	fx     *fixture
	faults []int
	inputs [][]float64
	c      float64
	trials int
	seed   uint64
	body   []byte
}

// units is the job's engine work: configurations × inputs for a
// worst-case search, trials × inputs for a Monte Carlo profile.
func (j jobSpec) units() float64 {
	if j.kind == "montecarlo" {
		return float64(j.trials * len(j.inputs))
	}
	return float64(j.configs() * int64(len(j.inputs)))
}

// configs is C(N_l, f_l) multiplied over the layers.
func (j jobSpec) configs() int64 {
	total := int64(1)
	for l, f := range j.faults {
		n := j.fx.shape.Widths[l]
		c := int64(1)
		for i := 0; i < f; i++ {
			c = c * int64(n-i) / int64(i+1)
		}
		total *= c
	}
	return total
}

// campaignJob draws job j of the cycle: worst-case searches on the skip
// graph (DAG engine) and the dense net (layered engine), Monte Carlo
// profiles on the dense net and the 1024-wide sparse graph (CSR lane
// kernels). Every job has its own inputs and trial seed, so none can be
// answered from the memo.
func campaignJob(ws map[string]*fixture, seed uint64, j int) jobSpec {
	r := rng.NewStream(seed, uint64(j))
	var s jobSpec
	switch j % 4 {
	case 0:
		s = jobSpec{kind: "worstcase", label: "worstcase/graph", fx: ws[fxGraph], faults: []int{2, 2}, inputs: metrics.RandomPoints(r, 2, 48)}
	case 1:
		s = jobSpec{kind: "montecarlo", label: "montecarlo/dense", fx: ws[fxDense], faults: []int{2, 2}, c: 0.5, trials: 6000, inputs: metrics.RandomPoints(r, 2, 64)}
	case 2:
		s = jobSpec{kind: "worstcase", label: "worstcase/dense", fx: ws[fxDense], faults: []int{2, 2}, inputs: metrics.RandomPoints(r, 2, 128)}
	default:
		s = jobSpec{kind: "montecarlo", label: "montecarlo/sparse", fx: ws[fxSparse], faults: []int{4, 4, 4}, trials: 96, inputs: metrics.RandomPoints(r, 8, 8)}
	}
	req := map[string]any{"network_id": s.fx.id, "faults": s.faults, "inputs": s.inputs}
	if s.kind == "montecarlo" {
		s.seed = r.Uint64()>>1 | 1 // the service treats seed 0 as "use the default"
		req["c"], req["trials"], req["seed"] = s.c, s.trials, s.seed
	}
	s.body = mustJSON(map[string]any{"kind": s.kind, "request": req})
	return s
}

// jobRecord is the part of a job record the campaign reads.
type jobRecord struct {
	ID          string    `json:"id"`
	State       string    `json:"state"`
	Error       string    `json:"error"`
	Created     time.Time `json:"created"`
	Started     time.Time `json:"started"`
	Finished    time.Time `json:"finished"`
	Attempts    int       `json:"attempts"`
	Checkpoints int       `json:"checkpoints"`
	Memoized    bool      `json:"memoized"`
}

// finishedJob is a job the campaign saw complete.
type finishedJob struct {
	spec   jobSpec
	rec    jobRecord
	result []byte
}

// jobTally counts what the closed loop met besides finished jobs.
type jobTally struct {
	attempted, submitted, rejected, retries int
	failures                                []error
}

// submitJob posts a job, backing off on 429. The
// answer must be a fresh, non-memoized acceptance.
func submitJob(c *client, s jobSpec, t *jobTally) (string, error) {
	for {
		status, body, err := c.do(http.MethodPost, "/v1/jobs", s.body)
		if err != nil {
			return "", err
		}
		if status == http.StatusTooManyRequests {
			t.rejected++
			time.Sleep(100 * time.Millisecond)
			continue
		}
		var rec jobRecord
		if status != http.StatusAccepted {
			return "", fmt.Errorf("submit %s: HTTP %d, want 202: %.200s", s.label, status, body)
		}
		if err := json.Unmarshal(body, &rec); err != nil {
			return "", fmt.Errorf("submit %s: %w", s.label, err)
		}
		if rec.Memoized {
			return "", fmt.Errorf("submit %s: answered from the memo, not computed", s.label)
		}
		t.submitted++
		return rec.ID, nil
	}
}

// runJobs keeps campaignJobWorkers jobs outstanding until the deadline,
// then waits for the last ones. It returns every finished job.
func runJobs(c *client, ws map[string]*fixture, seed uint64, deadline time.Time, t *jobTally) []finishedJob {
	type pending struct {
		id   string
		spec jobSpec
	}
	var out []finishedJob
	var open []pending
	next := 0
	for time.Now().Before(deadline) || len(open) > 0 {
		for len(open) < campaignJobWorkers && time.Now().Before(deadline) {
			s := campaignJob(ws, seed, next)
			next++
			t.attempted++
			id, err := submitJob(c, s, t)
			if err != nil {
				t.failures = append(t.failures, err)
				continue
			}
			open = append(open, pending{id, s})
		}
		time.Sleep(pollEvery)
		kept := open[:0]
		for _, p := range open {
			status, body, err := c.do(http.MethodGet, "/v1/jobs/"+p.id, nil)
			var rec jobRecord
			if err == nil && status == http.StatusOK {
				err = json.Unmarshal(body, &rec)
			} else if err == nil {
				err = fmt.Errorf("HTTP %d: %.200s", status, body)
			}
			switch {
			case err != nil:
				t.failures = append(t.failures, fmt.Errorf("poll %s: %w", p.spec.label, err))
			case rec.State == "done":
				t.retries += rec.Attempts - 1
				status, res, err := c.do(http.MethodGet, "/v1/jobs/"+p.id+"/result", nil)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("HTTP %d: %.200s", status, res)
				}
				if err != nil {
					t.failures = append(t.failures, fmt.Errorf("result %s: %w", p.spec.label, err))
					continue
				}
				out = append(out, finishedJob{spec: p.spec, rec: rec, result: res})
			case rec.State == "failed" || rec.State == "cancelled":
				t.failures = append(t.failures, fmt.Errorf("%s job %s: %s: %s", p.spec.label, p.id, rec.State, rec.Error))
			default:
				kept = append(kept, p)
			}
		}
		open = kept
	}
	return out
}

// checkJob compares a finished job's result with the in-process answer
// to the same request.
func checkJob(ctx context.Context, pool *parallel.Pool, j finishedJob) error {
	s := j.spec
	if s.kind == "montecarlo" {
		want, err := s.fx.expectMonteCarlo(ctx, pool, s.faults, s.c, s.inputs, s.trials, s.seed)
		if err != nil {
			return err
		}
		return expectJSON(http.StatusOK, want)(http.StatusOK, j.result)
	}
	want, _, err := s.fx.expectWorstCase(ctx, pool, s.faults, s.inputs)
	if err != nil {
		return err
	}
	if want.WorstError > want.Bound*(1+1e-9) {
		return fmt.Errorf("in-process worst error %g exceeds the bound %g", want.WorstError, want.Bound)
	}
	return expectJSON(http.StatusOK, want)(http.StatusOK, j.result)
}

// runCampaign is the async-job workload: closed-loop worst-case and
// Monte Carlo jobs with an open-loop bounds probe beside them.
func runCampaign(rc *runCtx) (map[string]metricValue, error) {
	fixtures := []*fixture{rc.ws[fxDense], rc.ws[fxGraph], rc.ws[fxSparse]}
	probes, err := newQueryGen(rc.ws, rc.seed)
	if err != nil {
		return nil, err
	}
	warm := func(c *client) error {
		for _, fx := range fixtures {
			if err := roundTrip(c, probes.boundsOp(fx)); err != nil {
				return err
			}
		}
		return nil
	}
	srv, setup, err := setupServer(rc, "campaign", campaignWorkers, campaignJobWorkers, fixtures, warm)
	if err != nil {
		return nil, err
	}
	probeConn, jobConn := newClient(srv.base), newClient(srv.base)
	defer probeConn.close()
	defer jobConn.close()

	probeOps := make([]op, int(probeRate*float64(rc.seconds)))
	for i := range probeOps {
		probeOps[i] = probes.boundsOp(fixtures[i%len(fixtures)])
	}
	var probe loopStats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		probe = openLoop([]*client{probeConn}, probeRate, probeOps, rc.tr, "probe")
	}()
	var tally jobTally
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		srv.stop() //nolint:errcheck // the read failure is the error to report
		return nil, err
	}
	rss := srv.sampleRSS()
	jobs := runJobs(jobConn, rc.ws, rc.seed, time.Now().Add(time.Duration(rc.seconds)*time.Second), &tally)
	wg.Wait()
	rssMB := median(rss.finish())

	cpu1, err := srv.cpuSeconds()
	if err != nil {
		srv.stop() //nolint:errcheck // the read failure is the error to report
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}

	// Checks run after the server is gone, so they cannot steal its CPU.
	pool := parallel.NewPool(clientProcs)
	defer pool.Close()
	errs := append([]error(nil), tally.failures...)
	for _, j := range jobs {
		if err := checkJob(context.Background(), pool, j); err != nil {
			errs = append(errs, fmt.Errorf("%s job %s: %w", j.spec.label, j.rec.ID, err))
		}
	}
	rc.out.count(tally.attempted, errs)
	rc.out.count(len(probe.lat), probe.failures)
	if len(jobs) == 0 {
		return nil, fmt.Errorf("no job finished")
	}
	if !probe.lagValid() {
		return nil, fmt.Errorf("probe generator lag %v exceeds the share allowed for a %v phase: run invalid", probe.maxLag, probe.span)
	}

	first, last := jobs[0].rec.Created, jobs[0].rec.Finished
	var jobSecs, queueMs, checkpoints []float64
	var wcUnits, mcUnits float64
	perLabel := map[string][]float64{}
	for _, j := range jobs {
		if j.rec.Created.Before(first) {
			first = j.rec.Created
		}
		if j.rec.Finished.After(last) {
			last = j.rec.Finished
		}
		d := j.rec.Finished.Sub(j.rec.Created).Seconds()
		jobSecs = append(jobSecs, d)
		queueMs = append(queueMs, float64(j.rec.Started.Sub(j.rec.Created))/float64(time.Millisecond))
		checkpoints = append(checkpoints, float64(j.rec.Checkpoints))
		perLabel[j.spec.label] = append(perLabel[j.spec.label], d)
		if j.spec.kind == "montecarlo" {
			mcUnits += j.spec.units()
		} else {
			wcUnits += j.spec.units()
		}
	}
	wall := last.Sub(first).Seconds()
	rc.out.note("%-34s %d finished, %d submitted, %d rejected (429), %d retries, wall %.3f s", "jobs", len(jobs), tally.submitted, tally.rejected, tally.retries, wall)
	for _, l := range sortedKeys(perLabel) {
		rc.out.note("%-34s n=%d median=%.4g s", "  "+l, len(perLabel[l]), median(perLabel[l]))
	}
	rc.out.metric("job_p50_s", median(jobSecs), "s", "median submit-to-done over all jobs")
	rc.out.metric("configs_per_s", wcUnits/wall, "1/s", "worst-case configurations x inputs per campaign second")
	rc.out.metric("trials_per_s", mcUnits/wall, "1/s", "Monte Carlo trials x inputs per campaign second")
	rc.out.metric("jobs.queue_wait_ms", median(queueMs), "ms", "median Started-Created")
	rc.out.metric("jobs.checkpoints_per_job", median(checkpoints), "count", "median checkpoints per job")
	rc.out.note("%-34s rate=%g/s ops=%d generator_lag_max=%v backlog_end=%d", "probe stream", probeRate, len(probe.lat), probe.maxLag, probe.backlog)
	lat, err := latencySummary(rc.out, "probe", probe.lat)
	if err != nil {
		return nil, err
	}
	work := float64(len(jobs)) / wall
	cpuPerJob := 1000 * (cpu1 - cpu0) / float64(len(jobs))
	rc.out.metric("setup_s", setup, "s", "start, upload and cache warm-up (median of set-ups)")
	rc.out.metric("p50_ms", lat.p50, "ms", "median probe latency from due time")
	rc.out.metric("p90_ms", lat.p90, "ms", "p90 probe latency from due time")
	rc.out.metric("p99_ms", lat.p99, "ms", "p99 probe latency from due time")
	rc.out.metric("work_per_s", work, "1/s", "jobs finished per campaign second (the job mix is a fixed cycle)")
	rc.out.metric("cpu_ms_per_op", cpuPerJob, "ms", "server CPU per finished job, probe stream included")
	rc.out.metric("rss_mb", rssMB, "MiB", "server resident set, median of 50ms samples")
	return map[string]metricValue{
		"setup_s":       {setup, "s"},
		"p50_ms":        {lat.p50, "ms"},
		"p90_ms":        {lat.p90, "ms"},
		"p99_ms":        {lat.p99, "ms"},
		"work_per_s":    {work, "1/s"},
		"job_p50_s":     {median(jobSecs), "s"},
		"cpu_ms_per_op": {cpuPerJob, "ms"},
		"rss_mb":        {rssMB, "MiB"},
	}, nil
}
