package nn

import (
	"testing"

	"repro/internal/activation"
	"repro/internal/rng"
)

// TestDAGOfChainView: a layered model's level view reads only the
// previous level, addresses in-edges by previous-layer index, and its
// level kernels are bit-identical to the layer kernels they forward to.
func TestDAGOfChainView(t *testing.T) {
	r := rng.New(17)
	n := NewGlorot(r, Config{InputDim: 3, Widths: []int{5, 4}, Act: activation.NewSigmoid(1), Bias: true})
	dm := DAGOf(n)
	if DAGOf(dm) != dm {
		t.Fatal("DAGOf of a DAGModel must return it unchanged")
	}
	L := n.NumLayers()
	ys := make([][]float64, L+1)
	ys[0] = []float64{0.2, -0.7, 0.4}
	for l := 1; l <= L; l++ {
		if src := dm.SrcLevels(l); len(src) != 1 || src[0] != l-1 {
			t.Fatalf("SrcLevels(%d) = %v, want [%d]", l, src, l-1)
		}
		for to := 0; to < n.Width(l); to++ {
			if got := dm.FanIn(l, to); got != n.Width(l-1) {
				t.Fatalf("FanIn(%d, %d) = %d, want %d", l, to, got, n.Width(l-1))
			}
			for k := 0; k < n.Width(l-1); k++ {
				sl, si, w := dm.InEdge(l, to, k)
				if sl != l-1 || si != k || w != n.Weight(l, to, k) {
					t.Fatalf("InEdge(%d, %d, %d) = (%d, %d, %v)", l, to, k, sl, si, w)
				}
			}
		}
		got := make([]float64, n.Width(l))
		want := make([]float64, n.Width(l))
		dm.LevelSums(l, got, ys, nil)
		n.LayerSums(l, want, ys[l-1], nil)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("LevelSums(%d)[%d] = %v, LayerSums %v", l, i, got[i], want[i])
			}
		}
		// Two lanes reading different sources through the lane kernel.
		alt := make([]float64, len(ys[l-1]))
		for i, v := range ys[l-1] {
			alt[i] = 1 - v
		}
		altYs := append([][]float64(nil), ys...)
		altYs[l-1] = alt
		lanes := [][]float64{make([]float64, n.Width(l)), make([]float64, n.Width(l))}
		LevelSumsLanesModel(dm, l, lanes, [][][]float64{ys, altYs})
		altWant := make([]float64, n.Width(l))
		n.LayerSums(l, altWant, alt, nil)
		for i := range want {
			if lanes[0][i] != want[i] || lanes[1][i] != altWant[i] {
				t.Fatalf("LevelSumsLanes(%d)[%d] = (%v, %v), want (%v, %v)", l, i, lanes[0][i], lanes[1][i], want[i], altWant[i])
			}
		}
		activation.Eval(n.Act, got, got)
		ys[l] = got
	}
	if got, want := dm.OutputSumLevels(ys), n.OutputSum(ys[L]); got != want {
		t.Fatalf("OutputSumLevels = %v, OutputSum %v", got, want)
	}
}
