package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/activation"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/store"
)

func testNet(seed uint64) *nn.Network {
	return nn.NewRandom(rng.New(seed), nn.Config{
		InputDim: 2,
		Widths:   []int{10, 6},
		Act:      activation.NewSigmoid(1),
		Bias:     true,
	}, 1.2)
}

// mustNew builds a Server, failing the test on error.
func mustNew(tb testing.TB, cfg Config) *Server {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// newTestServer returns a server over a fresh store holding one
// network, plus that network and its ID.
func newTestServer(t *testing.T) (*Server, *nn.Network, string) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	net := testNet(1)
	entry, err := st.PutNetwork(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{Store: st, Workers: 4})
	t.Cleanup(s.Close)
	return s, net, entry.ID
}

// do issues a request against the in-process handler and decodes the
// JSON response into out (when non-nil), returning the status code.
func do(t *testing.T, s *Server, method, path string, body any, out any) int {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: invalid response JSON: %v\n%s", method, path, err, rec.Body.String())
		}
	}
	return rec.Code
}

func TestHealthz(t *testing.T) {
	s, _, _ := newTestServer(t)
	var resp struct {
		Status  string `json:"status"`
		Stored  int    `json:"stored_networks"`
		Workers int    `json:"workers"`
	}
	if code := do(t, s, "GET", "/healthz", nil, &resp); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	if resp.Status != "ok" || resp.Stored != 1 || resp.Workers != 4 {
		t.Fatalf("healthz = %+v", resp)
	}
}

func TestUploadAndListNetworks(t *testing.T) {
	s, _, id := newTestServer(t)
	data, err := json.Marshal(testNet(2))
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		ID     string `json:"id"`
		Widths []int  `json:"widths"`
	}
	if code := do(t, s, "POST", "/v1/networks", string(data), &up); code != 201 {
		t.Fatalf("upload status %d", code)
	}
	if up.ID == id || len(up.ID) != 64 || up.Widths[0] != 10 {
		t.Fatalf("upload = %+v", up)
	}
	var list struct {
		Networks []struct {
			ID string `json:"id"`
		} `json:"networks"`
	}
	if code := do(t, s, "GET", "/v1/networks", nil, &list); code != 200 {
		t.Fatalf("list status %d", code)
	}
	if len(list.Networks) != 2 {
		t.Fatalf("listed %d networks, want 2", len(list.Networks))
	}
}

// TestEvalMatchesForward: the service's batched eval is bit-identical
// to in-process evaluation, addressed by ID prefix.
func TestEvalMatchesForward(t *testing.T) {
	s, net, id := newTestServer(t)
	inputs := metrics.Grid(2, 7)
	var resp struct {
		Outputs []float64 `json:"outputs"`
	}
	req := map[string]any{"network_id": id[:12], "inputs": inputs}
	if code := do(t, s, "POST", "/v1/eval", req, &resp); code != 200 {
		t.Fatalf("eval status %d", code)
	}
	if len(resp.Outputs) != len(inputs) {
		t.Fatalf("eval returned %d outputs for %d inputs", len(resp.Outputs), len(inputs))
	}
	for i, x := range inputs {
		if want := net.Forward(x); resp.Outputs[i] != want {
			t.Fatalf("output[%d] = %v, want exactly %v", i, resp.Outputs[i], want)
		}
	}
}

// TestBoundsMatchesCore: the service's certificates equal the library's.
func TestBoundsMatchesCore(t *testing.T) {
	s, net, id := newTestServer(t)
	shape := core.ShapeOf(net)
	faults := []int{2, 1}
	var resp boundsResponse
	req := map[string]any{"network_id": id, "faults": faults, "c": 0.5, "eps": 9.0, "eps_prime": 0.1}
	if code := do(t, s, "POST", "/v1/bounds", req, &resp); code != 200 {
		t.Fatalf("bounds status %d", code)
	}
	if want := core.Fep(shape, faults, 0.5); resp.Fep != want {
		t.Fatalf("fep = %v, want %v", resp.Fep, want)
	}
	if want := core.CrashFep(shape, faults); resp.CrashFep != want {
		t.Fatalf("crash_fep = %v, want %v", resp.CrashFep, want)
	}
	synFaults := []int{2, 1, 0}
	if want := core.SynapseFep(shape, synFaults, 0.5); resp.SynapseFep != want {
		t.Fatalf("synapse_fep = %v, want %v", resp.SynapseFep, want)
	}
	if resp.Tolerated == nil || resp.CrashTolerated == nil {
		t.Fatal("tolerance certificates missing despite eps > 0")
	}
	if want := core.Tolerates(shape, faults, 0.5, 9, 0.1); *resp.Tolerated != want {
		t.Fatalf("tolerated = %v, want %v", *resp.Tolerated, want)
	}
	wantSig := core.RequiredSignals(shape, faults)
	if len(resp.RequiredSignals) != len(wantSig) {
		t.Fatalf("required_signals = %v, want %v", resp.RequiredSignals, wantSig)
	}
	for i := range wantSig {
		if resp.RequiredSignals[i] != wantSig[i] {
			t.Fatalf("required_signals = %v, want %v", resp.RequiredSignals, wantSig)
		}
	}
	// Uniform broadcast: "faults": 1 means one per layer.
	var uni boundsResponse
	if code := do(t, s, "POST", "/v1/bounds", map[string]any{"network_id": id, "faults": 1}, &uni); code != 200 {
		t.Fatalf("uniform bounds status %d", code)
	}
	if want := core.Fep(shape, []int{1, 1}, 1); uni.Fep != want {
		t.Fatalf("uniform fep = %v, want %v", uni.Fep, want)
	}
}

// TestInjectMeasuredWithinBound drives /v1/inject for every registered
// model and checks the measured-vs-bound invariant end to end.
func TestInjectMeasuredWithinBound(t *testing.T) {
	s, _, id := newTestServer(t)
	for _, name := range fault.ModelNames() {
		var resp struct {
			Model    string  `json:"model"`
			Measured float64 `json:"measured"`
			Bound    float64 `json:"bound"`
		}
		req := map[string]any{"network_id": id, "faults": 2, "model": name, "c": 0.6, "bits": 8, "bit": 6}
		if code := do(t, s, "POST", "/v1/inject", req, &resp); code != 200 {
			t.Fatalf("inject %s status %d", name, code)
		}
		if resp.Model != name {
			t.Fatalf("inject %s answered for model %s", name, resp.Model)
		}
		if resp.Measured > resp.Bound*(1+1e-9) {
			t.Fatalf("inject %s: measured %v above bound %v", name, resp.Measured, resp.Bound)
		}
	}
	// Identical adversarial distributions share one compiled plan.
	s.mu.RLock()
	cn := s.nets[id]
	s.mu.RUnlock()
	if got := cn.plansCached(); got != 1 {
		t.Fatalf("plan cache holds %d plans after identical requests, want 1", got)
	}
}

// TestMonteCarloDeterministicAndBounded: same seed → same profile; the
// empirical max respects the Fep bound; distinct seeds differ.
func TestMonteCarloDeterministicAndBounded(t *testing.T) {
	s, _, id := newTestServer(t)
	type mcResp struct {
		Trials int     `json:"trials"`
		Mean   float64 `json:"mean"`
		Max    float64 `json:"max"`
		Bound  float64 `json:"bound"`
	}
	req := map[string]any{"network_id": id, "faults": 1, "trials": 60, "seed": 11}
	var a, b mcResp
	if code := do(t, s, "POST", "/v1/montecarlo", req, &a); code != 200 {
		t.Fatalf("montecarlo status %d", code)
	}
	if code := do(t, s, "POST", "/v1/montecarlo", req, &b); code != 200 {
		t.Fatalf("montecarlo status %d", code)
	}
	if a != b {
		t.Fatalf("same seed produced %+v then %+v", a, b)
	}
	if a.Trials != 60 || a.Max > a.Bound*(1+1e-9) || a.Mean <= 0 {
		t.Fatalf("profile %+v", a)
	}
	req["seed"] = uint64(12)
	var c mcResp
	do(t, s, "POST", "/v1/montecarlo", req, &c)
	if c.Mean == a.Mean {
		t.Fatal("different seeds produced identical profiles")
	}
}

// TestMonteCarloCancellation: an abandoned request stops the campaign
// between trials instead of running 200k trials for nobody.
func TestMonteCarloCancellation(t *testing.T) {
	s, _, id := newTestServer(t)
	cn, err := s.storedNetwork(id)
	if err != nil {
		t.Fatal(err)
	}
	_, traces := cn.standardInputs()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already abandoned before the campaign starts
	if _, err := s.shardedMonteCarlo(ctx, cn.model, []int{1, 1}, 0, traces, maxTrials, 1); err == nil {
		t.Fatal("cancelled campaign returned a profile")
	}
	// Through the handler: a cancelled request context maps to 499.
	req := httptest.NewRequest("POST", "/v1/montecarlo",
		strings.NewReader(`{"network_id": "`+id+`", "faults": 1, "trials": 50000}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("cancelled request answered %d, want %d", rec.Code, statusClientClosedRequest)
	}
}

// TestInlineNetworkQueries: stateless queries carry the network in the
// request body.
func TestInlineNetworkQueries(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{Store: st})
	defer s.Close()
	net := testNet(3)
	data, err := json.Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	var resp boundsResponse
	body := fmt.Sprintf(`{"network": %s, "faults": 1}`, data)
	if code := do(t, s, "POST", "/v1/bounds", body, &resp); code != 200 {
		t.Fatalf("inline bounds status %d", code)
	}
	if want := core.Fep(core.ShapeOf(net), []int{1, 1}, 1); resp.Fep != want {
		t.Fatalf("inline fep = %v, want %v", resp.Fep, want)
	}
}

// TestMalformedRequests pins the error envelope across the failure
// modes a client can produce.
func TestMalformedRequests(t *testing.T) {
	s, net, id := newTestServer(t)
	netJSON, _ := json.Marshal(net)
	cases := []struct {
		name, path, body string
		wantStatus       int
		wantErr          string
	}{
		{"syntax", "/v1/bounds", `{not json`, 400, "invalid character"},
		{"unknown field", "/v1/bounds", `{"network_id": "` + id + `", "fualts": 2}`, 400, "fualts"},
		{"missing network", "/v1/bounds", `{"faults": 1}`, 400, "missing network_id"},
		{"unknown id", "/v1/bounds", `{"network_id": "ffffffffffff"}`, 404, "no artifact"},
		{"both refs", "/v1/bounds", `{"network_id": "` + id + `", "network": ` + string(netJSON) + `}`, 400, "not both"},
		{"faults exceed width", "/v1/bounds", `{"network_id": "` + id + `", "faults": [11, 1]}`, 400, "exceeds layer width"},
		{"faults arity", "/v1/bounds", `{"network_id": "` + id + `", "faults": [1]}`, 400, "2 layers"},
		{"negative c", "/v1/bounds", `{"network_id": "` + id + `", "c": -1}`, 400, "negative"},
		{"faults type", "/v1/bounds", `{"network_id": "` + id + `", "faults": "two"}`, 400, "integer"},
		{"empty inputs", "/v1/eval", `{"network_id": "` + id + `"}`, 400, "inputs is empty"},
		{"bad dimension", "/v1/eval", `{"network_id": "` + id + `", "inputs": [[1, 2, 3]]}`, 400, "dimension"},
		{"unknown model", "/v1/inject", `{"network_id": "` + id + `", "model": "gremlin"}`, 400, "registered models"},
		{"trials too large", "/v1/montecarlo", `{"network_id": "` + id + `", "trials": 1000000}`, 400, "trials"},
		{"inline invalid net", "/v1/bounds", `{"network": {"input_dim": 0}}`, 400, "network"},
		{"network typo field", "/v1/bounds",
			`{"network": {"input_dim":1,"activation":"sigmoid(k=1)","hidden":[[[1]]],"output":[1],"output_bais":5}}`,
			400, "output_bais"},
	}
	for _, tc := range cases {
		var resp struct {
			Error string `json:"error"`
		}
		code := do(t, s, "POST", tc.path, tc.body, &resp)
		if code != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (error %q)", tc.name, code, tc.wantStatus, resp.Error)
			continue
		}
		if !strings.Contains(resp.Error, tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, resp.Error, tc.wantErr)
		}
	}
}

// TestStoredNetworkErrors separates the client's lookup errors from the
// store's damage: an unknown ID is 404, a non-model artifact 422, and a
// stored object whose bytes no longer hash to its ID 500.
func TestStoredNetworkErrors(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := st.PutNetwork(testNet(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := st.PutRaw(store.KindOutcomes, []byte(`[]`), nil)
	if err != nil {
		t.Fatal(err)
	}
	object := filepath.Join(dir, "objects", entry.ID[:2], entry.ID+".json")
	if err := os.WriteFile(object, []byte(`{"tampered": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{Store: st, Workers: 1})
	t.Cleanup(s.Close)
	for _, tc := range []struct {
		name, id string
		status   int
		wantErr  string
	}{
		{"unknown", "ffffffffffff", 404, "no artifact"},
		{"not a model", outcomes.ID, 422, "not a model"},
		{"tampered", entry.ID, 500, "corrupted"},
	} {
		var resp struct {
			Error string `json:"error"`
		}
		code := do(t, s, "POST", "/v1/bounds", `{"network_id": "`+tc.id+`", "faults": 1}`, &resp)
		if code != tc.status || !strings.Contains(resp.Error, tc.wantErr) {
			t.Errorf("%s: status %d (%q), want %d containing %q", tc.name, code, resp.Error, tc.status, tc.wantErr)
		}
	}
	var resp struct {
		Error string `json:"error"`
	}
	if code := do(t, s, "POST", "/v1/quantize", `{"network_id": "`+entry.ID+`"}`, &resp); code != 500 || !strings.Contains(resp.Error, "corrupted") {
		t.Errorf("quantize of a tampered network: status %d (%q), want 500 containing \"corrupted\"", code, resp.Error)
	}
}

// TestConcurrentClients is the acceptance scenario: parallel clients
// mixing /v1/bounds and /v1/montecarlo against one cached network all
// get correct, deterministic answers.
func TestConcurrentClients(t *testing.T) {
	s, net, id := newTestServer(t)
	shape := core.ShapeOf(net)
	wantFep := core.Fep(shape, []int{2, 1}, 1)

	// Reference Monte Carlo answer, computed once.
	mcReq := map[string]any{"network_id": id, "faults": 1, "trials": 40, "seed": 5}
	var ref struct {
		Mean float64 `json:"mean"`
		Max  float64 `json:"max"`
	}
	if code := do(t, s, "POST", "/v1/montecarlo", mcReq, &ref); code != 200 {
		t.Fatalf("montecarlo status %d", code)
	}

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, 2*clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			body, _ := json.Marshal(map[string]any{"network_id": id, "faults": []int{2, 1}})
			s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/bounds", bytes.NewReader(body)))
			var resp boundsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				errs <- err
				return
			}
			if rec.Code != 200 || resp.Fep != wantFep {
				errs <- fmt.Errorf("bounds: status %d fep %v, want 200 %v", rec.Code, resp.Fep, wantFep)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			body, _ := json.Marshal(mcReq)
			s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/montecarlo", bytes.NewReader(body)))
			var resp struct {
				Mean float64 `json:"mean"`
				Max  float64 `json:"max"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				errs <- err
				return
			}
			if rec.Code != 200 || resp.Mean != ref.Mean || resp.Max != ref.Max {
				errs <- fmt.Errorf("montecarlo: status %d profile %+v, want %+v", rec.Code, resp, ref)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRunGracefulShutdown boots a real listener, hits /healthz, then
// cancels the context and expects a clean exit.
func TestRunGracefulShutdown(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- Run(ctx, "127.0.0.1:0", Config{Store: st}, func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			addrCh <- strings.TrimPrefix(line, "listening on ")
		})
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not report its address")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz over TCP: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}
