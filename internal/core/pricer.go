package core

import "repro/internal/nn"

// Pricer is the certificate query surface shared by the layered
// Certifier and the arbitrary-topology NodeShape: every consumer that
// prices bounds goes through it, so none of them cares which algebra
// backs a model.
type Pricer interface {
	Fep(faults []int, c float64) float64
	CrashFep(faults []int) float64
	SynapseFep(faults []int, c float64) float64
	Tolerates(faults []int, c, eps, epsPrime float64) bool
	CrashTolerates(faults []int, eps, epsPrime float64) bool
	RequiredSignals(faults []int) []int
}

// NewPricer returns the algebra that prices m's certificates, together
// with m's Shape (computed once; callers need it beside the pricer for
// widths, w_m and fault-model deviation caps). Strictly layered models
// — dense, conv, and graphs whose every edge spans one level — get the
// layered Certifier, Theorem 2's closed form over the Shape. Any other
// model gets the per-node NodeShape: a skip edge routes a deviation
// around the (N_l - f_l)·w_m products, so the layered algebra is
// unsound there.
func NewPricer(m nn.Model) (Pricer, Shape, error) {
	s := ShapeOfModel(m)
	if err := s.Validate(); err != nil {
		return nil, s, err
	}
	if nn.IsLayered(m) {
		cert, err := NewCertifier(s)
		return cert, s, err
	}
	ns, err := NodeShapeOf(m)
	if err != nil {
		return nil, s, err
	}
	return ns, s, nil
}

// ForkPricer returns a pricer equivalent to p that another goroutine
// may use: a fresh Certifier over p's shape (a Certifier holds query
// scratch), or p itself for a NodeShape (immutable and safe for
// concurrent use).
func ForkPricer(p Pricer) Pricer {
	if c, ok := p.(*Certifier); ok {
		// The shape was validated when c was built.
		fork, _ := NewCertifier(c.Shape())
		return fork
	}
	return p
}

// SynapseFaults fills dst (length L+1) with the synapse distribution a
// bounds query derives from the neuron distribution faults: faults[l]
// synapses into each hidden level, none on the output synapses. Under
// the per-node algebra each entry is capped at the level's edge count,
// since a sparse level can have fewer in-edges than nodes (beyond that
// every edge into the level is already faulty). It returns dst.
func SynapseFaults(p Pricer, faults, dst []int) []int {
	copy(dst, faults)
	dst[len(dst)-1] = 0
	if ns, ok := p.(*NodeShape); ok {
		for l := range dst {
			if n := ns.SynapseCount(l + 1); dst[l] > n {
				dst[l] = n
			}
		}
	}
	return dst
}
