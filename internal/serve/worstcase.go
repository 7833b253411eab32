package serve

import (
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/fault"
)

// ---- POST /v1/worstcase ----

type worstCaseRequest struct {
	netRef
	Faults     faultSpec   `json:"faults,omitempty"`
	Model      string      `json:"model,omitempty"`
	C          *float64    `json:"c,omitempty"`
	Value      *float64    `json:"value,omitempty"`
	Bits       *int        `json:"bits,omitempty"`
	Bit        *int        `json:"bit,omitempty"`
	Inputs     [][]float64 `json:"inputs,omitempty"`
	MaxConfigs int64       `json:"max_configs,omitempty"`
}

// maxWorstConfigs bounds one exhaustive certification request. The tree
// engine prunes, but the worst case is still a full enumeration; larger
// sweeps belong in the async job tier (and even there the same cap
// applies — split the fault distribution instead).
const maxWorstConfigs = 2_000_000

// wcResolved is a validated exhaustive-certification request: defaults
// applied, faults resolved against the layer widths, the injector
// built. Its scalar fields plus the network identity and inputs are
// exactly what determines the result — the job memo key hashes them
// (max_configs is a guard, not an input, and is excluded).
type wcResolved struct {
	cn     *cachedNet
	model  fault.Model
	faults []int
	params fault.Params
	inj    fault.Injector
	inputs [][]float64
	total  int64
}

// resolveWorstCase validates a request, applying the same defaults for
// the synchronous path, the job tier and the memo key. Stochastic
// models are rejected: an exhaustive sweep certifies a worst case only
// when every configuration's error is a deterministic function of the
// configuration — randomised deviations are a profile, not a
// certificate, and belong to /v1/montecarlo.
func (s *Server) resolveWorstCase(req worstCaseRequest) (wcResolved, error) {
	var wc wcResolved
	model, err := lookupModel(req.Model)
	if err != nil {
		return wc, err
	}
	if !model.Deterministic {
		return wc, badRequest(fmt.Sprintf("fault model %q is stochastic; exhaustive worst-case search needs a deterministic model — profile stochastic models with /v1/montecarlo", model.Name))
	}
	cn, err := s.network(req.netRef)
	if err != nil {
		return wc, err
	}
	faults, err := req.Faults.resolve(cn.shape.Widths)
	if err != nil {
		return wc, err
	}
	// Same rationale as computeInject: C-agnostic models would carry a
	// negative cap into the Fep computation, which panics on it.
	if req.C != nil && *req.C < 0 {
		return wc, badRequest("c is negative")
	}
	params := fault.Params{
		C:     orDefault(req.C, 1),
		Sem:   core.DeviationCap,
		Value: orDefault(req.Value, 0.8),
		Bits:  orDefaultInt(req.Bits, 8),
		Bit:   orDefaultInt(req.Bit, 7),
		Net:   cn.model,
	}
	inj, err := model.New(params)
	if err != nil {
		return wc, badRequest(err.Error())
	}
	if req.MaxConfigs < 0 {
		return wc, badRequest("max_configs is negative")
	}
	limit := req.MaxConfigs
	if limit == 0 || limit > maxWorstConfigs {
		limit = maxWorstConfigs
	}
	total, err := fault.CountConfigurations(cn.shape.Widths, faults)
	if err != nil {
		return wc, badRequest(err.Error())
	}
	if total > limit {
		return wc, badRequest(fmt.Sprintf("%d configurations exceed limit %d (cap %d); lower the fault counts", total, limit, maxWorstConfigs))
	}
	inputs := req.Inputs
	if len(inputs) > 0 {
		if err := checkInputs(cn, inputs); err != nil {
			return wc, err
		}
	} else {
		inputs, _ = cn.standardInputs()
	}
	return wcResolved{cn: cn, model: model, faults: faults, params: params, inj: inj, inputs: inputs, total: total}, nil
}

// worstCaseEngine builds the pruned tree engine for a resolved request,
// sharded over the server's worker pool.
func (s *Server) worstCaseEngine(wc wcResolved) (*fault.WorstCase, error) {
	return fault.NewWorstCase(wc.cn.model, wc.faults, wc.inputs, fault.WorstCaseOptions{
		Injector:   wc.inj,
		Prune:      true,
		MaxConfigs: maxWorstConfigs,
		Pool:       s.pool,
	})
}

// worstCaseResponse compares the completed search against the matching
// closed-form certificate and assembles the result document. It
// deliberately excludes the visited/pruned counters: they depend on the
// racy pruning floor under parallel sharding, and the async job tier
// content-addresses this document — a killed-and-resumed job must
// reproduce the identical ResultID. The synchronous handler adds them
// on top.
func (s *Server) worstCaseResponse(wc wcResolved, res fault.ExhaustiveResult) (map[string]any, error) {
	dev := wc.model.NeuronDeviation(wc.params, wc.cn.shape)
	b := wc.cn.getBounds()
	bound := b.cert.Fep(wc.faults, dev)
	wc.cn.putBounds(b)
	plan := make([]map[string]int, 0, len(res.WorstPlan.Neurons))
	for _, f := range res.WorstPlan.Neurons {
		plan = append(plan, map[string]int{"layer": f.Layer, "index": f.Index})
	}
	resp := map[string]any{
		"network_id":     wc.cn.id,
		"model":          wc.model.Name,
		"deterministic":  true,
		"faults":         wc.faults,
		"configurations": res.Configurations,
		"inputs":         len(wc.inputs),
		"worst_error":    res.WorstError,
		"worst_plan":     plan,
		"deviation_cap":  dev,
		"bound":          bound,
	}
	if bound > 0 {
		resp["utilization"] = res.WorstError / bound
	}
	if res.WorstError > bound*(1+1e-9) {
		// A violated bound is a bug in the engine, never a valid answer.
		return nil, &httpError{status: http.StatusInternalServerError,
			msg: fmt.Sprintf("bound violated: worst error %g > bound %g", res.WorstError, bound)}
	}
	return resp, nil
}

func (s *Server) handleWorstCase(w http.ResponseWriter, r *http.Request) {
	var req worstCaseRequest
	if err := decode(r, &req); err != nil {
		fail(w, err)
		return
	}
	wc, err := s.resolveWorstCase(req)
	if err != nil {
		fail(w, err)
		return
	}
	eng, err := s.worstCaseEngine(wc)
	if err != nil {
		fail(w, badRequest(err.Error()))
		return
	}
	res, err := eng.Run(r.Context())
	if err != nil {
		// The client is gone: nobody is listening, and a partial sweep
		// certifies nothing.
		writeError(w, statusClientClosedRequest, err.Error())
		return
	}
	resp, err := s.worstCaseResponse(wc, res)
	if err != nil {
		fail(w, err)
		return
	}
	resp["visited"] = res.Visited
	resp["pruned"] = res.Pruned
	writeJSON(w, http.StatusOK, resp)
}
