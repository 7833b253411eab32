package fault

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/rng"
)

// Profile is the empirical error distribution of a failure process —
// the probabilistic complement to the worst-case Fep bound: Fep certifies
// the tail's endpoint, the profile shows where the mass actually sits.
type Profile struct {
	// Stats summarises the per-trial max errors.
	Stats metrics.Stats
	// Q90, Q99 are upper quantiles of the per-trial max error.
	Q90, Q99 float64
	// Trials is the number of random failure configurations evaluated.
	Trials int
}

// MonteCarlo samples random failure configurations of the given per-layer
// distribution, each with random bounded Byzantine values (or crashes
// when c == 0), measures the max error over the inputs for each, and
// returns the empirical profile.
//
// Trials run through the batched multi-lane engine, BatchLanes
// configurations per sweep; each trial's plan and rng stream are drawn
// in trial order and each lane replays the scalar evaluation exactly,
// so the profile is bit-identical to evaluating trials one at a time.
func MonteCarlo(n nn.Model, perLayer []int, c float64, sem core.CapSemantics, inputs [][]float64, trials int, r *rng.Rand) Profile {
	// One clean sweep per input serves every sampled configuration.
	errs := make([]float64, trials)
	TrialErrors(n, perLayer, c, sem, CleanTraces(n, inputs), func(int) *rng.Rand { return r }, errs)
	return ProfileOf(errs)
}

// TrialErrors is the Monte Carlo trial loop: errs[t] receives the max
// error over the clean traces of trial t's random failure configuration
// — a RandomNeuronPlan of perLayer and a RandomByzantine injector
// (crashes when c == 0) drawn from stream(t), in trial order. Trials
// run BatchLanes at a time through the batched engine, and each lane
// replays the scalar evaluation exactly, so batching never changes a
// result. A sequential caller returns one shared generator for every
// t; a sharded caller returns a per-trial stream, so a trial samples
// the same configuration whichever shard runs it.
func TrialErrors(n nn.Model, perLayer []int, c float64, sem core.CapSemantics, traces []*nn.Trace, stream func(t int) *rng.Rand, errs []float64) {
	bp := CompileBatch(n, BatchLanes)
	var plans [BatchLanes]Plan
	var injs [BatchLanes]Injector
	var laneErr, laneWorst [BatchLanes]float64
	for t := 0; t < len(errs); t += BatchLanes {
		lanes := min(BatchLanes, len(errs)-t)
		for p := 0; p < lanes; p++ {
			r := stream(t + p)
			plans[p] = RandomNeuronPlan(r, n, perLayer)
			if c == 0 {
				injs[p] = Crash{}
			} else {
				injs[p] = RandomByzantine{C: c, Sem: sem, R: r.Split()}
			}
			laneWorst[p] = 0
		}
		bp.Reset(plans[:lanes])
		for _, tr := range traces {
			bp.ErrorsOnTrace(injs[:lanes], tr, laneErr[:lanes])
			for p := 0; p < lanes; p++ {
				if laneErr[p] > laneWorst[p] {
					laneWorst[p] = laneErr[p]
				}
			}
		}
		copy(errs[t:t+lanes], laneWorst[:lanes])
	}
}

// ProfileOf summarises per-trial max errors into a Profile — the shared
// tail of MonteCarlo and of executors that produce the per-trial errors
// themselves (e.g. a sharded parallel sweep).
func ProfileOf(errs []float64) Profile {
	sorted := append([]float64(nil), errs...)
	sort.Float64s(sorted)
	return Profile{
		Stats:  metrics.Summarize(errs),
		Q90:    quantile(sorted, 0.90),
		Q99:    quantile(sorted, 0.99),
		Trials: len(errs),
	}
}

// inputCand pairs a candidate worst input with its error.
type inputCand struct {
	x []float64
	e float64
}

// insertionSortCands orders candidates by error, descending.
func insertionSortCands(xs []inputCand) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j].e > xs[j-1].e; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// WorstInput searches for an input maximising the damaged-vs-nominal
// error: a random sampling phase (16 candidates per restart) seeds
// coordinate-wise hill climbing on [0,1]^d from the best points found.
// It complements grid sampling: the tightness demonstrations need inputs
// near the equality cases of the proofs, which climbing localises far
// more cheaply than a dense grid.
func WorstInput(n nn.Model, p Plan, inj Injector, r *rng.Rand, restarts, steps int) ([]float64, float64) {
	d := n.Width(0)
	cp := Compile(n, p)
	// Sampling phase: collect starting points, keep the `restarts` best.
	pool := make([]inputCand, 0, 16*restarts)
	for i := 0; i < 16*restarts; i++ {
		x := make([]float64, d)
		r.Floats(x, 0, 1)
		pool = append(pool, inputCand{x, cp.ErrorOn(inj, x)})
	}
	insertionSortCands(pool)
	if restarts > len(pool) {
		restarts = len(pool)
	}

	bestX := make([]float64, d)
	bestErr := -1.0
	for restart := 0; restart < restarts; restart++ {
		x := append([]float64(nil), pool[restart].x...)
		cur := pool[restart].e
		step := 0.25
		for s := 0; s < steps; s++ {
			improved := false
			for i := 0; i < d; i++ {
				for _, dir := range []float64{+1, -1} {
					cand := x[i] + dir*step
					if cand < 0 || cand > 1 {
						continue
					}
					old := x[i]
					x[i] = cand
					if e := cp.ErrorOn(inj, x); e > cur {
						cur = e
						improved = true
					} else {
						x[i] = old
					}
				}
			}
			if !improved {
				step /= 2
				if step < 1e-4 {
					break
				}
			}
		}
		if cur > bestErr {
			bestErr = cur
			copy(bestX, x)
		}
	}
	return bestX, bestErr
}
