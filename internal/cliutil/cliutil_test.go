package cliutil

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/activation"
	"repro/internal/conv"
	"repro/internal/nn"
	"repro/internal/rng"
)

func TestParseWidths(t *testing.T) {
	got, err := ParseWidths("16, 8,4")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 16 || got[1] != 8 || got[2] != 4 {
		t.Fatalf("ParseWidths = %v", got)
	}
	for _, bad := range []string{"", "0", "-3", "a", "4,,2"} {
		if _, err := ParseWidths(bad); err == nil {
			t.Fatalf("ParseWidths(%q) accepted", bad)
		}
	}
}

func TestParseFaultsUniform(t *testing.T) {
	got, err := ParseFaults("2", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 2 || got[2] != 2 {
		t.Fatalf("uniform broadcast = %v", got)
	}
}

func TestParseFaultsPerLayer(t *testing.T) {
	got, err := ParseFaults("1,0,3", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 0 || got[2] != 3 {
		t.Fatalf("per layer = %v", got)
	}
	if _, err := ParseFaults("1,2", 3); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := ParseFaults("-1", 2); err == nil {
		t.Fatal("negative accepted")
	}
	if _, err := ParseFaults("1,x", 2); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestClampFaults(t *testing.T) {
	faults := []int{5, 1}
	ClampFaults(faults, []int{3, 4})
	if faults[0] != 3 || faults[1] != 1 {
		t.Fatalf("ClampFaults = %v", faults)
	}
}

func TestSaveLoadNetworkRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.json")
	r := rng.New(1)
	net := nn.NewRandom(r, nn.Config{InputDim: 2, Widths: []int{4}, Act: activation.NewSigmoid(1.5), Bias: true}, 1)
	if err := SaveNetwork(path, net); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadNetwork(path)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, 0.7}
	if math.Abs(net.Forward(x)-restored.Forward(x)) > 1e-15 {
		t.Fatal("round trip changed the function")
	}
}

func TestLoadNetworkErrors(t *testing.T) {
	if _, err := LoadNetwork("/nonexistent/net.json"); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadNetwork(bad); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

// TestLoadNetworkRejectsOtherArchitectures: a conv document handed to a
// dense-only command fails naming its architecture, not with a JSON
// decoding error.
func TestLoadNetworkRejectsOtherArchitectures(t *testing.T) {
	net, err := conv.NewRandom2D(rng.New(1), 5, 5, []int{3}, []int{2}, activation.NewSigmoid(1), 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "conv.json")
	if err := SaveModel(path, net); err != nil {
		t.Fatal(err)
	}
	_, err = LoadNetwork(path)
	want := path + " holds a conv2d model; this command needs a dense network"
	if err == nil || err.Error() != want {
		t.Fatalf("LoadNetwork(conv2d) error = %v, want %q", err, want)
	}
}
