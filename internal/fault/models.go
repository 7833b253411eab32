// Fault-model catalogue: the injectors behind the registry's named
// models. The paper's analysis (Theorems 2-5) is parameterised only by a
// per-component deviation cap, so each model here is admitted to the
// same Fep machinery by exposing its worst-case deviation (see Model).
// The intermittent and noise families reproduce, respectively, the
// reoccurring node failures of Sardi et al. ("Vitality of Neural
// Networks under Reoccurring Catastrophic Failures") and the
// noise-driven degradation of Roxin et al. ("Self-sustained activity in
// a small-world network of excitable neurons") as injectors against
// which the analytic bounds are validated (experiment S1 in DESIGN.md).
package fault

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rng"
)

// upstreamCap bounds the magnitude of any value transmitted over a
// synapse: hidden-layer outputs satisfy |y| <= ActCap, and network
// inputs live in [0,1]^d by the approx.Target convention, so the first
// synapse layer sees magnitudes up to 1.
func upstreamCap(s core.Shape) float64 {
	return math.Max(1, s.ActCap)
}

// maxAbsW returns the largest per-layer maximal absolute weight.
func maxAbsW(s core.Shape) float64 {
	m := 0.0
	for _, w := range s.MaxW {
		if w > m {
			m = w
		}
	}
	return m
}

// StuckAt models stuck-at-value failures: a faulty neuron's output is
// frozen at V regardless of its inputs, and a faulty synapse's
// transmitted contribution is frozen at V. Stuck-at-0 on neurons is
// exactly a crash; other values model latched outputs (e.g. a saturated
// driver). Deterministic and safe for concurrent use.
type StuckAt struct {
	V float64
}

func (s StuckAt) NeuronValue(NeuronFault, float64) float64 { return s.V }
func (s StuckAt) SynapseDelta(_ SynapseFault, transmitted float64) float64 {
	return s.V - transmitted
}

// NominalFree reports that the stuck value ignores the clean output.
func (StuckAt) NominalFree() bool { return true }

// SignFlip models polarity inversion: a faulty neuron broadcasts the
// negation of its nominal output, and a faulty synapse reverses the sign
// of its transmitted contribution. Deterministic and safe for concurrent
// use.
type SignFlip struct{}

func (SignFlip) NeuronValue(_ NeuronFault, nominal float64) float64 { return -nominal }
func (SignFlip) SynapseDelta(_ SynapseFault, transmitted float64) float64 {
	return -2 * transmitted
}

// Intermittent models reoccurring transient failures (Sardi et al.): on
// each evaluation the faulty component independently crashes with
// probability P and behaves correctly otherwise. Stochastic — holds its
// rng stream through compile-time state and draws without allocating;
// NOT safe for concurrent use (one stream per goroutine via R.Split).
type Intermittent struct {
	P float64
	R *rng.Rand
}

func (i Intermittent) NeuronValue(_ NeuronFault, nominal float64) float64 {
	if i.R.Bool(i.P) {
		return 0
	}
	return nominal
}

func (i Intermittent) SynapseDelta(_ SynapseFault, transmitted float64) float64 {
	if i.R.Bool(i.P) {
		return -transmitted
	}
	return 0
}

// ClippedNoise models additive noise degradation (Roxin et al.): the
// faulty component's value deviates by Gaussian noise with standard
// deviation Sigma, hard-clipped to the capacity [-C, C] so Assumption 1
// (and therefore the Fep bound with deviation cap C) holds surely, not
// just in probability. Stochastic — see Intermittent for the
// concurrency contract.
type ClippedNoise struct {
	C, Sigma float64
	R        *rng.Rand
}

func (g ClippedNoise) draw() float64 {
	v := g.Sigma * g.R.NormFloat64()
	if v > g.C {
		return g.C
	}
	if v < -g.C {
		return -g.C
	}
	return v
}

func (g ClippedNoise) NeuronValue(_ NeuronFault, nominal float64) float64 {
	return nominal + g.draw()
}

func (g ClippedNoise) SynapseDelta(SynapseFault, float64) float64 { return g.draw() }

// BitFlip models a single-event upset in a sign-magnitude fixed-point
// implementation (the quantised setting of Theorem 5 / Proteus): values
// are encoded with Bits bits (one sign bit, Bits-1 magnitude bits) over
// their full range, and the fault flips bit Bit of the stored code.
//
//   - A faulty SYNAPSE has bit Bit of its quantised WEIGHT flipped: the
//     transmitted contribution w·y becomes w'·y. The injector recovers y
//     from the transmitted value and the weight it looks up in Net;
//     flips on exactly-zero weights are inert (their channel is silent,
//     so the upstream output is unobservable — and contributes nothing
//     either way when the magnitude grid step is zero).
//   - A faulty NEURON has bit Bit of its quantised OUTPUT code flipped
//     (the activation encoded over [-ActCap, ActCap]).
//
// Bit = Bits-1 flips the sign bit (value negation, the worst single-bit
// upset); lower bits flip one magnitude bit of weight 2^Bit grid steps.
// Deterministic and safe for concurrent use. Construct via the registry
// ("bitflip", Params{Net, Bits, Bit}) or quant.BitFlipInjector.
type BitFlip struct {
	dag    nn.DAGModel // nn.DAGOf of the model the weights come from
	bits   int
	bit    int
	actCap float64
	// steps[l-1] is the weight grid step of synapse layer l (1..L+1).
	steps []float64
}

// NewBitFlip builds the injector against n's weights (any nn.Model:
// for conv models the flipped weight is the shared kernel value of the
// faulty synapse's virtual dense connection). bits is the total code
// width (>= 2); bit indexes the flipped bit in [0, bits-1].
func NewBitFlip(n nn.Model, bits, bit int) (BitFlip, error) {
	if n == nil {
		return BitFlip{}, fmt.Errorf("fault: bitflip requires a network (Params.Net)")
	}
	if bits < 2 || bits > 52 {
		return BitFlip{}, fmt.Errorf("fault: bitflip width %d outside [2, 52]", bits)
	}
	if bit < 0 || bit >= bits {
		return BitFlip{}, fmt.Errorf("fault: bit index %d outside [0, %d]", bit, bits-1)
	}
	L := n.NumLayers()
	levels := float64(int64(1)<<(bits-1)) - 1
	steps := make([]float64, L+1)
	for l := 1; l <= L+1; l++ {
		steps[l-1] = n.MaxWeight(l) / levels
	}
	act := n.Activation()
	actCap := math.Max(math.Abs(act.Min()), math.Abs(act.Max()))
	return BitFlip{dag: nn.DAGOf(n), bits: bits, bit: bit, actCap: actCap, steps: steps}, nil
}

// flip encodes v on the sign-magnitude grid with step q, flips the
// configured bit, and decodes.
func (b BitFlip) flip(v, q float64) float64 {
	if q == 0 {
		return v
	}
	sign := 1.0
	if v < 0 {
		sign = -1
	}
	levels := int64(1)<<(b.bits-1) - 1
	code := int64(math.Round(math.Abs(v) / q))
	if code > levels {
		code = levels
	}
	if b.bit == b.bits-1 {
		return -sign * float64(code) * q
	}
	code ^= int64(1) << uint(b.bit)
	return sign * float64(code) * q
}

func (b BitFlip) NeuronValue(_ NeuronFault, nominal float64) float64 {
	levels := float64(int64(1)<<(b.bits-1) - 1)
	return b.flip(nominal, b.actCap/levels)
}

// weightAt looks the faulty synapse's weight up in the model: From is
// an in-edge ordinal of the model's level view (the sender index on
// layered models).
func (b BitFlip) weightAt(f SynapseFault) float64 {
	_, _, w := b.dag.InEdge(f.Layer, f.To, f.From)
	return w
}

func (b BitFlip) SynapseDelta(f SynapseFault, transmitted float64) float64 {
	w := b.weightAt(f)
	if w == 0 {
		return 0
	}
	wf := b.flip(w, b.steps[f.Layer-1])
	return (wf - w) * transmitted / w
}

// bitFlipDeviation is the worst-case change a flip of bit `bit` in a
// `bits`-wide code over magnitude range maxAbs can cause, including the
// half-step of snapping the unquantised value to the grid first.
func bitFlipDeviation(maxAbs float64, bits, bit int) float64 {
	if bit == bits-1 {
		// Sign flip: |(-g) - v| <= g + |v| <= 2 maxAbs.
		return 2 * maxAbs
	}
	levels := float64(int64(1)<<(bits-1) - 1)
	q := maxAbs / levels
	return q * (float64(int64(1)<<uint(bit)) + 0.5)
}

// bitflipGeometry normalises the bit-flip parameters: Bits defaults to
// 8; Bit defaults (when zero-valued with Bits unset semantics kept
// simple) to the given value as-is — bit 0 is a valid, smallest flip.
func bitflipGeometry(p Params) (bits, bit int) {
	bits = p.Bits
	if bits == 0 {
		bits = 8
	}
	return bits, p.Bit
}

// Dispatch routes every fault to its own injector — the composition
// primitive for heterogeneous plans where different components fail
// under different models (e.g. a failure stream mixing crash, stuck and
// noisy neurons). Faults absent from both maps fall back to Default
// (Crash when Default is nil). Dispatch is safe for concurrent use iff
// every routed injector is.
type Dispatch struct {
	Neurons  map[NeuronFault]Injector
	Synapses map[SynapseFault]Injector
	Default  Injector
}

func (d Dispatch) fallback() Injector {
	if d.Default != nil {
		return d.Default
	}
	return Crash{}
}

func (d Dispatch) NeuronValue(f NeuronFault, nominal float64) float64 {
	if inj, ok := d.Neurons[f]; ok {
		return inj.NeuronValue(f, nominal)
	}
	return d.fallback().NeuronValue(f, nominal)
}

func (d Dispatch) SynapseDelta(f SynapseFault, transmitted float64) float64 {
	if inj, ok := d.Synapses[f]; ok {
		return inj.SynapseDelta(f, transmitted)
	}
	return d.fallback().SynapseDelta(f, transmitted)
}

// NominalFree reports whether every routed injector (and the fallback)
// ignores nominal values, letting the engine skip the clean trace.
func (d Dispatch) NominalFree() bool {
	if !injNominalFree(d.fallback()) {
		return false
	}
	for _, inj := range d.Neurons {
		if !injNominalFree(inj) {
			return false
		}
	}
	for _, inj := range d.Synapses {
		if !injNominalFree(inj) {
			return false
		}
	}
	return true
}

// injNominalFree reports whether inj declares itself nominal-free.
func injNominalFree(inj Injector) bool {
	nf, ok := inj.(NominalFree)
	return ok && nf.NominalFree()
}

func init() {
	Register(Model{
		Name:          "crash",
		Description:   "neuron stops sending (read as 0, Definition 2); synapse stops transmitting",
		Deterministic: true,
		New:           func(Params) (Injector, error) { return Crash{}, nil },
		NeuronDeviation: func(_ Params, s core.Shape) float64 {
			return s.ActCap
		},
		SynapseDeviation: func(_ Params, s core.Shape) float64 {
			return maxAbsW(s) * upstreamCap(s)
		},
	})
	Register(Model{
		Name:          "byzantine",
		Description:   "extreme bounded-arbitrary values within the capacity C (Assumption 1)",
		Deterministic: true,
		New: func(p Params) (Injector, error) {
			if p.C < 0 {
				return nil, fmt.Errorf("fault: byzantine capacity %g < 0", p.C)
			}
			return Byzantine{C: p.C, Sem: p.Sem}, nil
		},
		NeuronDeviation: func(p Params, s core.Shape) float64 {
			return core.EffectiveDeviation(p.C, p.Sem, s.ActCap)
		},
		SynapseDeviation: func(p Params, s core.Shape) float64 {
			if p.Sem == core.TransmissionCap {
				return p.C + maxAbsW(s)*upstreamCap(s)
			}
			return p.C
		},
	})
	Register(Model{
		Name:          "byzantine-random",
		Description:   "uniformly random bounded-arbitrary values within the capacity C",
		Deterministic: false,
		New: func(p Params) (Injector, error) {
			if p.C < 0 {
				return nil, fmt.Errorf("fault: byzantine-random capacity %g < 0", p.C)
			}
			if p.R == nil {
				return nil, fmt.Errorf("fault: byzantine-random requires a random stream (Params.R)")
			}
			return RandomByzantine{C: p.C, Sem: p.Sem, R: p.R}, nil
		},
		NeuronDeviation: func(p Params, s core.Shape) float64 {
			return core.EffectiveDeviation(p.C, p.Sem, s.ActCap)
		},
		SynapseDeviation: func(p Params, s core.Shape) float64 {
			if p.Sem == core.TransmissionCap {
				return p.C + maxAbsW(s)*upstreamCap(s)
			}
			return p.C
		},
	})
	Register(Model{
		Name:          "stuck",
		Description:   "output latched at a fixed value (stuck-at-V; V=0 coincides with crash)",
		Deterministic: true,
		New:           func(p Params) (Injector, error) { return StuckAt{V: p.Value}, nil },
		NeuronDeviation: func(p Params, s core.Shape) float64 {
			return math.Abs(p.Value) + s.ActCap
		},
		SynapseDeviation: func(p Params, s core.Shape) float64 {
			return math.Abs(p.Value) + maxAbsW(s)*upstreamCap(s)
		},
	})
	Register(Model{
		Name:          "intermittent",
		Description:   "reoccurring transient crash with probability P per evaluation (Sardi et al.)",
		Deterministic: false,
		New: func(p Params) (Injector, error) {
			if p.Prob < 0 || p.Prob > 1 {
				return nil, fmt.Errorf("fault: intermittent probability %g outside [0, 1]", p.Prob)
			}
			if p.R == nil {
				return nil, fmt.Errorf("fault: intermittent requires a random stream (Params.R)")
			}
			return Intermittent{P: p.Prob, R: p.R}, nil
		},
		NeuronDeviation: func(_ Params, s core.Shape) float64 {
			return s.ActCap
		},
		SynapseDeviation: func(_ Params, s core.Shape) float64 {
			return maxAbsW(s) * upstreamCap(s)
		},
	})
	Register(Model{
		Name:          "noise",
		Description:   "additive Gaussian noise (sigma = C/3) hard-clipped to the capacity C (Roxin et al.)",
		Deterministic: false,
		New: func(p Params) (Injector, error) {
			if p.C < 0 {
				return nil, fmt.Errorf("fault: noise capacity %g < 0", p.C)
			}
			if p.R == nil {
				return nil, fmt.Errorf("fault: noise requires a random stream (Params.R)")
			}
			return ClippedNoise{C: p.C, Sigma: p.C / 3, R: p.R}, nil
		},
		NeuronDeviation: func(p Params, _ core.Shape) float64 {
			return p.C
		},
		SynapseDeviation: func(p Params, _ core.Shape) float64 {
			return p.C
		},
	})
	Register(Model{
		Name:          "signflip",
		Description:   "polarity inversion: the component transmits the negation of its nominal value",
		Deterministic: true,
		New:           func(Params) (Injector, error) { return SignFlip{}, nil },
		NeuronDeviation: func(_ Params, s core.Shape) float64 {
			return 2 * s.ActCap
		},
		SynapseDeviation: func(_ Params, s core.Shape) float64 {
			return 2 * maxAbsW(s) * upstreamCap(s)
		},
	})
	Register(Model{
		Name:          "bitflip",
		Description:   "single-event upset: one bit of the sign-magnitude fixed-point code flips (quantised weights / outputs)",
		Deterministic: true,
		New: func(p Params) (Injector, error) {
			bits, bit := bitflipGeometry(p)
			return NewBitFlip(p.Net, bits, bit)
		},
		NeuronDeviation: func(p Params, s core.Shape) float64 {
			bits, bit := bitflipGeometry(p)
			return bitFlipDeviation(s.ActCap, bits, bit)
		},
		SynapseDeviation: func(p Params, s core.Shape) float64 {
			bits, bit := bitflipGeometry(p)
			return bitFlipDeviation(maxAbsW(s), bits, bit) * upstreamCap(s)
		},
	})
}
