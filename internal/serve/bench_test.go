package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/store"
)

// benchServer builds a server with one stored, cache-warmed network.
func benchServer(b *testing.B) (*Server, string) {
	b.Helper()
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	entry, err := st.PutNetwork(testNet(1), nil)
	if err != nil {
		b.Fatal(err)
	}
	s := mustNew(b, Config{Store: st})
	b.Cleanup(s.Close)
	if _, err := s.storedNetwork(entry.ID); err != nil {
		b.Fatal(err)
	}
	return s, entry.ID
}

// boundsCompute is the request handler's certificate computation,
// isolated from the HTTP/JSON shell: what a steady-state bounds query
// costs once the network is cached.
func boundsCompute(cn *cachedNet, faults []int, c float64) float64 {
	bs := cn.getBounds()
	fep := bs.cert.Fep(faults, c)
	fep += bs.cert.CrashFep(faults)
	fep += bs.cert.SynapseFep(core.SynapseFaults(bs.cert, faults, bs.synFaults), c)
	cn.putBounds(bs)
	return fep
}

// TestBoundsComputeSteadyStateAllocs pins the acceptance contract: the
// bounds hot path (pooled certifier scratch included) allocates nothing
// per request in the steady state.
func TestBoundsComputeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented sync.Pool allocates on Get")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	entry, err := st.PutNetwork(testNet(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{Store: st})
	defer s.Close()
	cn, err := s.storedNetwork(entry.ID)
	if err != nil {
		t.Fatal(err)
	}
	faults := []int{2, 1}
	if allocs := testing.AllocsPerRun(200, func() {
		boundsCompute(cn, faults, 1)
	}); allocs != 0 {
		t.Fatalf("bounds compute path allocates %v per request, want 0", allocs)
	}
}

// BenchmarkBoundsCompute measures the cached certificate path alone —
// the part of a /v1/bounds request that is not JSON plumbing.
func BenchmarkBoundsCompute(b *testing.B) {
	s, id := benchServer(b)
	cn, err := s.storedNetwork(id)
	if err != nil {
		b.Fatal(err)
	}
	faults := []int{2, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boundsCompute(cn, faults, 1)
	}
}

// BenchmarkBoundsRequest measures a full /v1/bounds request through the
// handler: JSON decode + cached certificates + JSON encode.
func BenchmarkBoundsRequest(b *testing.B) {
	s, id := benchServer(b)
	h := s.Handler()
	body, err := json.Marshal(map[string]any{"network_id": id, "faults": []int{2, 1}, "c": 1.0})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/bounds", bytes.NewReader(body)))
		if rec.Code != 200 {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkBoundsRequestParallel is the concurrent serving story:
// parallel clients sharing one cached network and its scratch pool.
func BenchmarkBoundsRequestParallel(b *testing.B) {
	s, id := benchServer(b)
	h := s.Handler()
	body, err := json.Marshal(map[string]any{"network_id": id, "faults": []int{2, 1}, "c": 1.0})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/bounds", bytes.NewReader(body)))
			if rec.Code != 200 {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
}

// BenchmarkEvalRequestBatch measures a 64-input batched /v1/eval.
func BenchmarkEvalRequestBatch(b *testing.B) {
	s, id := benchServer(b)
	h := s.Handler()
	body, err := json.Marshal(map[string]any{"network_id": id, "inputs": metrics.Grid(2, 8)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/eval", bytes.NewReader(body)))
		if rec.Code != 200 {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkMonteCarloSharded compares the pool-sharded executor against
// the sequential library sweep at equal trial counts (b.N trials per
// iteration would be unstable; fixed 256-trial campaigns are compared).
func BenchmarkMonteCarloSharded(b *testing.B) {
	s, id := benchServer(b)
	cn, err := s.storedNetwork(id)
	if err != nil {
		b.Fatal(err)
	}
	_, traces := cn.standardInputs()
	faults := []int{1, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.shardedMonteCarlo(context.Background(), cn.model, faults, 0, traces, 256, 9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloSequential is the library baseline for the same
// campaign.
func BenchmarkMonteCarloSequential(b *testing.B) {
	s, id := benchServer(b)
	cn, err := s.storedNetwork(id)
	if err != nil {
		b.Fatal(err)
	}
	inputs, _ := cn.standardInputs()
	faults := []int{1, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fault.MonteCarlo(cn.model, faults, 0, core.DeviationCap, inputs, 256, rng.New(9))
	}
}
