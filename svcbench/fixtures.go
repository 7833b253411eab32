package main

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/activation"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/rng"
	"repro/internal/store"
)

// pricer is the certificate surface shared by core.Certifier and
// core.NodeShape, the two algebras the service prices bounds with.
type pricer interface {
	Fep(faults []int, c float64) float64
	CrashFep(faults []int) float64
	SynapseFep(faults []int, c float64) float64
	Tolerates(faults []int, c, eps, epsPrime float64) bool
	CrashTolerates(faults []int, eps, epsPrime float64) bool
	RequiredSignals(faults []int) []int
}

// fixture is one model document together with everything the benchmark
// expects the service to answer about it, computed in-process.
type fixture struct {
	name  string
	model nn.Model // parsed back from doc, exactly what the server holds
	doc   []byte   // upload body
	id    string   // content address the store gives the document
	shape core.Shape
	node  *core.NodeShape // non-nil for non-layered graphs
	cert  pricer          // not safe for concurrent use
}

// newFixture serialises m, parses it back the way the server does and
// derives its store ID and certificate pricer.
func newFixture(name string, m nn.Model) (*fixture, error) {
	doc, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	parsed, err := conv.ParseModel(doc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	canon, err := json.MarshalIndent(parsed, "", " ")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	fx := &fixture{name: name, model: parsed, doc: doc, id: store.ID(canon), shape: core.ShapeOfModel(parsed)}
	if nn.IsLayered(parsed) {
		c, err := core.NewCertifier(fx.shape)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		fx.cert = c
	} else {
		ns, err := core.NodeShapeOf(parsed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		fx.node, fx.cert = ns, ns
	}
	return fx, nil
}

// Working-set model names.
const (
	fxDense  = "dense"
	fxConv1D = "conv1d"
	fxConv2D = "conv2d"
	fxGraph  = "graph" // Watts–Strogatz skip graph, not layer-expressible
	fxSparse = "sparse"
)

// workingSet builds the fixed models every workload shares. Their
// weights come from fixed seeds, so a workload's cost does not swing
// with the workload seed; the seed varies the requests.
func workingSet() (map[string]*fixture, error) {
	sig := activation.NewSigmoid(1)
	c1, err := conv.NewRandom(rng.New(11), 16, []int{3, 3}, []int{3, 2}, sig, 0.5, true)
	if err != nil {
		return nil, err
	}
	c2, err := conv.NewRandom2D(rng.New(13), 6, 6, []int{3, 2}, []int{2, 2}, sig, 0.5, true)
	if err != nil {
		return nil, err
	}
	models := map[string]nn.Model{
		fxDense:  nn.NewGlorot(rng.New(7), nn.Config{InputDim: 2, Widths: []int{16, 16}, Act: sig, Bias: true}),
		fxConv1D: c1,
		fxConv2D: c2,
		fxGraph:  graph.NewSmallWorld(rng.New(5), 2, []int{24, 24}, sig, 2, 0.5),
		fxSparse: graph.NewSparse(rng.New(1), 8, []int{1024, 1024, 1024}, sig, 0.01),
	}
	out := map[string]*fixture{}
	for name, m := range models {
		fx, err := newFixture(name, m)
		if err != nil {
			return nil, err
		}
		out[name] = fx
	}
	if out[fxGraph].node == nil {
		return nil, fmt.Errorf("graph fixture is layer-expressible; the DAG paths would go unmeasured")
	}
	return out, nil
}

// boundsAnswer is the part of a /v1/bounds answer the check compares.
type boundsAnswer struct {
	Fep             float64 `json:"fep"`
	CrashFep        float64 `json:"crash_fep"`
	SynapseFep      float64 `json:"synapse_fep"`
	Tolerated       *bool   `json:"tolerated"`
	CrashTolerated  *bool   `json:"crash_tolerated"`
	RequiredSignals []int   `json:"required_signals"`
}

// expectBounds prices a bounds query in-process the way the service
// documents it: synapse faults mirror the neuron distribution with none
// on the output synapses, capped at the edges a sparse level has.
func (fx *fixture) expectBounds(faults []int, c, eps, epsPrime float64) boundsAnswer {
	syn := make([]int, len(faults)+1)
	copy(syn, faults)
	if fx.node != nil {
		for l := range syn {
			if n := fx.node.SynapseCount(l + 1); syn[l] > n {
				syn[l] = n
			}
		}
	}
	a := boundsAnswer{
		Fep:        fx.cert.Fep(faults, c),
		CrashFep:   fx.cert.CrashFep(faults),
		SynapseFep: fx.cert.SynapseFep(syn, c),
	}
	if eps > 0 {
		tol := fx.cert.Tolerates(faults, c, eps, epsPrime)
		crash := fx.cert.CrashTolerates(faults, eps, epsPrime)
		a.Tolerated, a.CrashTolerated = &tol, &crash
		a.RequiredSignals = append([]int(nil), fx.cert.RequiredSignals(faults)...)
	}
	return a
}

// standardInputs mirrors the service's standard evaluation sample: a
// 41-point grid per axis up to two inputs, 500 seeded points beyond.
func standardInputs(m nn.Model) [][]float64 {
	if d := m.Width(0); d > 2 {
		return metrics.RandomPoints(rng.New(12345), d, 500)
	}
	return metrics.Grid(m.Width(0), 41)
}

// crashParams are the fault parameters the service applies to a crash
// request that sets nothing but the faults.
func crashParams(m nn.Model) (fault.Model, fault.Params) {
	model, _ := fault.Lookup("crash")
	return model, fault.Params{C: 1, Sem: core.DeviationCap, Value: 0.8, Prob: 0.5, Bits: 8, Bit: 7, Net: m, R: rng.New(7 ^ 0xfa0175)}
}

// injectAnswer is the part of an /v1/inject answer the check compares.
type injectAnswer struct {
	Measured float64 `json:"measured"`
	Bound    float64 `json:"bound"`
}

// expectInject measures an adversarial crash in-process on the standard
// inputs: the heaviest-weights plan, compiled once.
func (fx *fixture) expectInject(faults []int) (injectAnswer, error) {
	model, params := crashParams(fx.model)
	inj, err := model.New(params)
	if err != nil {
		return injectAnswer{}, err
	}
	cp := fault.Compile(fx.model, fault.AdversarialNeuronPlan(fx.model, faults))
	traces := fault.CleanTraces(fx.model, standardInputs(fx.model))
	measured := parallel.MaxFloat64(len(traces), func(i int) float64 { return cp.ErrorOnTrace(inj, traces[i]) })
	return injectAnswer{Measured: measured, Bound: fx.cert.Fep(faults, model.NeuronDeviation(params, fx.shape))}, nil
}

// wcAnswer is the part of a worst-case result the check compares.
type wcAnswer struct {
	WorstError     float64 `json:"worst_error"`
	Bound          float64 `json:"bound"`
	Configurations int64   `json:"configurations"`
	Inputs         int     `json:"inputs"`
}

// expectWorstCase runs the pruned exhaustive search in-process.
func (fx *fixture) expectWorstCase(ctx context.Context, pool *parallel.Pool, faults []int, inputs [][]float64) (wcAnswer, fault.ExhaustiveResult, error) {
	w, err := fault.NewWorstCase(fx.model, faults, inputs, fault.WorstCaseOptions{Prune: true, Pool: pool})
	if err != nil {
		return wcAnswer{}, fault.ExhaustiveResult{}, err
	}
	res, err := w.Run(ctx)
	if err != nil {
		return wcAnswer{}, res, err
	}
	model, params := crashParams(fx.model)
	return wcAnswer{
		WorstError:     res.WorstError,
		Bound:          fx.cert.Fep(faults, model.NeuronDeviation(params, fx.shape)),
		Configurations: res.Configurations,
		Inputs:         len(inputs),
	}, res, nil
}

// mcAnswer is the part of a Monte Carlo profile the check compares.
type mcAnswer struct {
	Trials int     `json:"trials"`
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	Q90    float64 `json:"q90"`
	Q99    float64 `json:"q99"`
	Max    float64 `json:"max"`
	Bound  float64 `json:"bound"`
}

// monteCarloErrors evaluates trials [0, trials) in-process: trial t
// draws its plan and deviations from the stream (seed, t) alone, and
// eight trials share one batched sweep. fill, when non-nil, counts how
// full the lanes ran. Shards split the trial range
// differently from the service's checkpoint chunks, which must not
// change any trial's result.
func monteCarloErrors(ctx context.Context, pool *parallel.Pool, m nn.Model, faults []int, c float64, traces []*nn.Trace, trials int, seed uint64, fill *laneFill) ([]float64, error) {
	errs := make([]float64, trials)
	err := pool.ForCtx(ctx, trials, 0, func(lo, hi int) {
		bp := fault.CompileBatch(m, fault.BatchLanes)
		var plans [fault.BatchLanes]fault.Plan
		var injs [fault.BatchLanes]fault.Injector
		var laneErr [fault.BatchLanes]float64
		for i := lo; i < hi; i += fault.BatchLanes {
			lanes := min(fault.BatchLanes, hi-i)
			for p := 0; p < lanes; p++ {
				r := rng.NewStream(seed, uint64(i+p))
				plans[p] = fault.RandomNeuronPlan(r, m, faults)
				if c == 0 {
					injs[p] = fault.Crash{}
				} else {
					injs[p] = fault.RandomByzantine{C: c, Sem: core.DeviationCap, R: r.Split()}
				}
			}
			bp.Reset(plans[:lanes])
			fill.add(lanes)
			for _, tr := range traces {
				bp.ErrorsOnTrace(injs[:lanes], tr, laneErr[:lanes])
				for p := 0; p < lanes; p++ {
					errs[i+p] = max(errs[i+p], laneErr[p])
				}
			}
		}
	})
	return errs, err
}

// expectMonteCarlo computes the profile the service must return.
func (fx *fixture) expectMonteCarlo(ctx context.Context, pool *parallel.Pool, faults []int, c float64, inputs [][]float64, trials int, seed uint64) (mcAnswer, error) {
	errs, err := monteCarloErrors(ctx, pool, fx.model, faults, c, fault.CleanTraces(fx.model, inputs), trials, seed, nil)
	if err != nil {
		return mcAnswer{}, err
	}
	prof := fault.ProfileOf(errs)
	bound := fx.cert.Fep(faults, c)
	if c == 0 {
		bound = fx.cert.CrashFep(faults)
	}
	return mcAnswer{Trials: prof.Trials, Mean: prof.Stats.Mean, Median: prof.Stats.Median,
		Q90: prof.Q90, Q99: prof.Q99, Max: prof.Stats.Max, Bound: bound}, nil
}

// quantAnswer is the part of a /v1/quantize answer the check compares.
type quantAnswer struct {
	ID    string  `json:"id"`
	Bound float64 `json:"bound"`
}

// expectQuantize derives the recipe's content address and the Theorem 5
// bound of a dense fixture quantised to bits.
func (fx *fixture) expectQuantize(bits int) (quantAnswer, error) {
	net, ok := fx.model.(*nn.Network)
	if !ok {
		return quantAnswer{}, fmt.Errorf("%s is not a dense network", fx.name)
	}
	opts := quant.Options{WeightBits: bits}
	q, err := quant.Quantize(net, opts)
	if err != nil {
		return quantAnswer{}, err
	}
	canon, err := json.MarshalIndent(store.QuantRecipe{NetworkID: fx.id, Options: opts}, "", " ")
	if err != nil {
		return quantAnswer{}, err
	}
	return quantAnswer{ID: store.ID(canon), Bound: q.Bound()}, nil
}
