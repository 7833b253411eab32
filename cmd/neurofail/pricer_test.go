package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/activation"
	"repro/internal/cliutil"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/serve"
)

// modelDocs writes one untrained model document per architecture into
// dir and returns their paths by name.
func modelDocs(t *testing.T, dir string) map[string]string {
	t.Helper()
	act := activation.NewSigmoid(1)
	r := rng.New(5)
	c1, err := conv.NewRandom(r.Split(), 10, []int{3}, []int{2}, act, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := conv.NewRandom2D(r.Split(), 6, 6, []int{3, 2}, []int{2, 2}, act, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	skip := graph.NewSmallWorld(r.Split(), 3, []int{8, 6, 5}, act, 2, 0.6)
	if nn.IsLayered(skip) {
		t.Fatal("small-world fixture has no skip edge")
	}
	models := map[string]nn.Model{
		"dense":   nn.NewRandom(r.Split(), nn.Config{InputDim: 2, Widths: []int{6, 4}, Act: act, Bias: true}, 1),
		"conv1d":  c1,
		"conv2d":  c2,
		"layered": graph.NewLayered(r.Split(), 2, []int{8, 8}, act),
		"skip":    skip,
	}
	paths := map[string]string{}
	for name, m := range models {
		path := filepath.Join(dir, name+".json")
		if err := cliutil.SaveModel(path, m); err != nil {
			t.Fatal(err)
		}
		paths[name] = path
	}
	return paths
}

// TestCLIPricerMatchesServeBounds: the CLI prices every architecture
// with the algebra /v1/bounds uses, so Fep, crash Fep and synapse Fep
// agree bit for bit on the same document.
func TestCLIPricerMatchesServeBounds(t *testing.T) {
	s, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for name, path := range modelDocs(t, t.TempDir()) {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []float64{0.5, 1} {
			pm, err := loadPriced(path, "1")
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			body, _ := json.Marshal(map[string]any{"network": json.RawMessage(doc), "faults": pm.faults, "c": c})
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/bounds", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: /v1/bounds status %d: %s", name, rec.Code, rec.Body.Bytes())
			}
			var got struct {
				Fep        float64 `json:"fep"`
				CrashFep   float64 `json:"crash_fep"`
				SynapseFep float64 `json:"synapse_fep"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			syn := core.SynapseFaults(pm.p, pm.faults, make([]int, len(pm.faults)+1))
			if fep := pm.p.Fep(pm.faults, c); fep != got.Fep {
				t.Errorf("%s c=%g: CLI Fep %v, /v1/bounds %v", name, c, fep, got.Fep)
			}
			if crash := pm.p.CrashFep(pm.faults); crash != got.CrashFep {
				t.Errorf("%s c=%g: CLI crash Fep %v, /v1/bounds %v", name, c, crash, got.CrashFep)
			}
			if sf := pm.p.SynapseFep(syn, c); sf != got.SynapseFep {
				t.Errorf("%s c=%g: CLI synapse Fep %v, /v1/bounds %v", name, c, sf, got.SynapseFep)
			}
		}
	}
}

// TestModelCommandsAcceptGraphs: bounds, inject, worstcase and
// montecarlo take graph documents, layered or not (each command errors
// if a measurement exceeds its bound).
func TestModelCommandsAcceptGraphs(t *testing.T) {
	docs := modelDocs(t, t.TempDir())
	for _, name := range []string{"layered", "skip"} {
		path := docs[name]
		for cmd, run := range map[string]func() error{
			"bounds": func() error {
				return cmdBounds([]string{"-net", path, "-faults", "1", "-eps", "3", "-epsprime", "0.1"})
			},
			"inject": func() error {
				return cmdInject([]string{"-net", path, "-faults", "1", "-mode", "byzantine", "-c", "0.7"})
			},
			"worstcase":  func() error { return cmdWorstCase([]string{"-net", path, "-faults", "1"}) },
			"montecarlo": func() error { return cmdMonteCarlo([]string{"-net", path, "-faults", "1", "-trials", "20"}) },
		} {
			if err := run(); err != nil {
				t.Errorf("%s on the %s graph: %v", cmd, name, err)
			}
		}
	}
}
