package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/store"
)

// inProcess serves the working set from a temporary store.
func inProcess(t *testing.T, ws map[string]*fixture) http.Handler {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Store: st, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	h := srv.Handler()
	for _, name := range []string{fxDense, fxGraph} {
		fx := ws[name]
		status, body := call(h, http.MethodPost, "/v1/networks", fx.doc)
		check := expectJSON(http.StatusCreated, struct {
			ID string `json:"id"`
		}{fx.id})
		if err := check(status, body); err != nil {
			t.Fatalf("upload %s: %v", name, err)
		}
	}
	return h
}

func call(h http.Handler, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

func TestChecksAcceptTrueAndRejectCorruptedAnswers(t *testing.T) {
	ws, err := workingSet()
	if err != nil {
		t.Fatal(err)
	}
	h := inProcess(t, ws)
	gen, err := newQueryGen(ws, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{fxDense, fxGraph} {
		o := gen.boundsOp(ws[name])
		status, body := call(h, o.method, o.path, o.body)
		if err := o.check(status, body); err != nil {
			t.Fatalf("%s: true answer rejected: %v", name, err)
		}
		// Flip one digit of the certificate: the check must fire.
		i := bytes.Index(body, []byte(`"fep": `)) + len(`"fep": `)
		bad := append([]byte(nil), body...)
		for j := i; j < len(bad); j++ {
			if bad[j] >= '1' && bad[j] <= '8' {
				bad[j]++
				break
			}
		}
		if err := o.check(status, bad); err == nil || !strings.Contains(err.Error(), "want") {
			t.Errorf("%s: corrupted fep accepted (err %v)", name, err)
		}
		if err := o.check(http.StatusInternalServerError, body); err == nil {
			t.Errorf("%s: wrong status accepted", name)
		}
	}
}

func TestJobChecksMatchTheService(t *testing.T) {
	ws, err := workingSet()
	if err != nil {
		t.Fatal(err)
	}
	h := inProcess(t, ws)
	pool := parallel.NewPool(2)
	defer pool.Close()
	fx := ws[fxDense]
	inputs := metrics.RandomPoints(rng.New(4), 2, 16)

	status, body := call(h, http.MethodPost, "/v1/worstcase", mustJSON(map[string]any{"network_id": fx.id, "faults": []int{1, 1}, "inputs": inputs}))
	want, _, err := fx.expectWorstCase(context.Background(), pool, []int{1, 1}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := expectJSON(http.StatusOK, want)(status, body); err != nil {
		t.Errorf("worst case: %v", err)
	}
	wrong := want
	wrong.WorstError *= 1.0000001
	if err := expectJSON(http.StatusOK, wrong)(status, body); err == nil {
		t.Error("a worst error off in the seventh digit was accepted")
	}

	mc := map[string]any{"network_id": fx.id, "faults": []int{2, 1}, "c": 0.5, "trials": 300, "seed": 11, "inputs": inputs}
	status, body = call(h, http.MethodPost, "/v1/montecarlo", mustJSON(mc))
	wantMC, err := fx.expectMonteCarlo(context.Background(), pool, []int{2, 1}, 0.5, inputs, 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := expectJSON(http.StatusOK, wantMC)(status, body); err != nil {
		t.Errorf("monte carlo: %v", err)
	}
	other, err := fx.expectMonteCarlo(context.Background(), pool, []int{2, 1}, 0.5, inputs, 300, 12)
	if err != nil {
		t.Fatal(err)
	}
	if err := expectJSON(http.StatusOK, other)(status, body); err == nil {
		t.Error("the profile of another seed was accepted")
	}

	var fill laneFill
	if _, err := monteCarloErrors(context.Background(), pool, fx.model, []int{1, 1}, 0, fault.CleanTraces(fx.model, inputs), 20, 3, &fill); err != nil {
		t.Fatal(err)
	}
	if r := fill.ratio(); r <= 0 || r > 1 {
		t.Errorf("lane fill %g outside (0, 1]", r)
	}
}

func TestIngestRoundIsDistinctAndFixedSize(t *testing.T) {
	ops, err := ingestRound(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != ingestOps {
		t.Fatalf("round has %d ops, want %d", len(ops), ingestOps)
	}
	seen := map[string]bool{}
	writes := 0
	for _, o := range ops {
		if o.kind != "upload" && o.kind != "quantize" {
			continue
		}
		writes++
		key := string(o.body)
		if seen[key] {
			t.Fatalf("a %s repeats an earlier write: the store would dedup it", o.kind)
		}
		seen[key] = true
	}
	if writes != ingestEndSize {
		t.Errorf("%d writes, want %d", writes, ingestEndSize)
	}
}
