package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func steadyStep(rate float64, latMs float64) loopStats {
	st := loopStats{rate: rate, span: time.Second, lat: make([]float64, windowSize)}
	for i := range st.lat {
		st.lat[i] = latMs
	}
	return st
}

func TestStepPasses(t *testing.T) {
	const limit = 10.0
	if !stepPasses(steadyStep(1000, 2), limit, 2) {
		t.Error("a fast step with no backlog failed")
	}
	if stepPasses(steadyStep(1000, 11), limit, 2) {
		t.Error("a step whose p99 misses the limit passed")
	}
	slowTail := steadyStep(1000, 2)
	for i := 0; i < 20; i++ {
		slowTail.lat[i] = 50
	}
	if stepPasses(slowTail, limit, 2) {
		t.Error("a step with 20 of 1200 ops over the limit passed")
	}
	backlog := steadyStep(1000, 2)
	backlog.backlog = 2 + 10 + 1 // senders + one limit's worth of arrivals, plus one
	if stepPasses(backlog, limit, 2) {
		t.Error("a step with a growing backlog passed on latency alone")
	}
	backlog.backlog = 12
	if !stepPasses(backlog, limit, 2) {
		t.Error("a backlog within one limit's worth of arrivals failed the step")
	}
	failed := steadyStep(1000, 2)
	failed.failures = []error{errors.New("HTTP 500")}
	if stepPasses(failed, limit, 2) {
		t.Error("a step with a failed op passed")
	}
	lagged := steadyStep(1000, 2)
	lagged.maxLag = 200 * time.Millisecond
	if stepPasses(lagged, limit, 2) {
		t.Error("a step whose generator fell behind passed")
	}
}

func TestSearchLadder(t *testing.T) {
	for _, c := range []struct{ n, lastPass int }{{100, 37}, {100, 0}, {100, 99}, {100, -1}, {1, 0}} {
		best, probed := searchLadder(c.n, func(i int) bool { return i <= c.lastPass })
		if best != c.lastPass {
			t.Errorf("n=%d pass<=%d: best %d (probed %v)", c.n, c.lastPass, best, probed)
		}
		if len(probed) > 16 {
			t.Errorf("n=%d: %d probes, want a logarithmic search", c.n, len(probed))
		}
	}
	rates := ladderRates(1000, 2000)
	for i := 1; i < len(rates); i++ {
		if r := rates[i] / rates[i-1]; r < 1.02 || r > 1.04 {
			t.Errorf("ladder step %g -> %g is not ~3%%", rates[i-1], rates[i])
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(60 * time.Millisecond) // one stall delays every op queued behind it
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()
	ops := make([]op, 20)
	for i := range ops {
		ops[i] = op{kind: "get", method: http.MethodGet, path: "/"}
	}
	st := openLoop([]*client{c}, 500, ops, nil, "t")
	if len(st.failures) != 0 {
		t.Fatal(st.failures)
	}
	// Op 1 was due 2ms after op 0 but could only be sent once the stall
	// ended; its latency counts that wait, not just its own round trip.
	if st.lat[1] < 40 {
		t.Errorf("op 1 latency %.3g ms does not include the wait behind the stall", st.lat[1])
	}
	if st.rtt[1] > 40 {
		t.Errorf("op 1 round trip %.3g ms includes the stall", st.rtt[1])
	}
}

func TestOpenLoopCountsWrongAnswers(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()
	st := openLoop([]*client{c}, 1000, []op{{kind: "get", method: http.MethodGet, path: "/", check: expectStatus(http.StatusOK)}}, nil, "t")
	if len(st.failures) != 1 || st.lat[0] < 1e308 {
		t.Errorf("a wrong status was not counted as a failure missing every limit: %+v", st)
	}
}
