package store

import (
	"fmt"

	"repro/internal/conv"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/quant"
)

// PutNetwork stores a trained network (kind "network"). Networks
// serialise through nn.Network's JSON codec, whose float64 encoding
// round-trips exactly: a loaded network's forward outputs are
// bit-identical to the saved one's.
func (s *Store) PutNetwork(net *nn.Network, meta map[string]string) (Entry, error) {
	if err := net.Validate(); err != nil {
		return Entry{}, err
	}
	return s.Put(KindNetwork, net, meta)
}

// Network loads a stored network by ID or unique prefix.
func (s *Store) Network(ref string) (*nn.Network, Entry, error) {
	var net nn.Network
	e, err := s.Get(ref, &net)
	if err != nil {
		return nil, Entry{}, err
	}
	if e.Kind != KindNetwork {
		return nil, Entry{}, fmt.Errorf("store: artifact %s is a %q, not a network", shortID(e.ID), e.Kind)
	}
	return &net, e, nil
}

// PutModel stores any nn.Model under its architecture's kind: dense
// networks as "network", conv nets as "conv", sparse-DAG graphs as
// "graph" — conv and graph documents carry their architecture tag
// ("arch": conv1d/conv2d/graph). Every codec round-trips float64
// exactly, so a loaded model's forward outputs are bit-identical to
// the saved one's. The returned entry's meta carries the architecture
// tag.
func (s *Store) PutModel(m nn.Model, meta map[string]string) (Entry, error) {
	if err := m.Validate(); err != nil {
		return Entry{}, err
	}
	if net, ok := m.(*nn.Network); ok {
		return s.PutNetwork(net, meta)
	}
	kind := ""
	switch m.(type) {
	case *conv.Net, *conv.Net2D:
		kind = KindConv
	case *graph.Net:
		kind = KindGraph
	default:
		return Entry{}, fmt.Errorf("store: unsupported model type %T", m)
	}
	withArch := make(map[string]string, len(meta)+1)
	for k, v := range meta {
		withArch[k] = v
	}
	// Written last: the tag must reflect the document, never a
	// caller-supplied override.
	withArch["arch"] = conv.ArchOf(m)
	return s.Put(kind, m, withArch)
}

// Model loads a stored model (kind "network", "conv" or "graph") by ID
// or unique prefix, dispatching on the document's architecture tag.
func (s *Store) Model(ref string) (nn.Model, Entry, error) {
	data, e, err := s.Raw(ref)
	if err != nil {
		return nil, Entry{}, err
	}
	if !IsModelKind(e.Kind) {
		return nil, Entry{}, fmt.Errorf("store: artifact %s is a %q, not a model", shortID(e.ID), e.Kind)
	}
	m, err := conv.ParseModel(data)
	if err != nil {
		return nil, Entry{}, fmt.Errorf("store: artifact %s: %w", shortID(e.ID), err)
	}
	return m, e, nil
}

// IsModelKind reports whether artifacts of the given kind are models:
// dense networks, conv nets or graphs.
func IsModelKind(kind string) bool {
	return kind == KindNetwork || kind == KindConv || kind == KindGraph
}

// Models lists every stored model entry — dense networks, conv nets
// and graphs — oldest first with ID as the tiebreak (List's order).
func (s *Store) Models() []Entry { return s.collect(IsModelKind) }

// QuantRecipe is the stored form of a quantised model: the content
// address of the full-precision network plus the fixed-point format.
// Quantisation is deterministic, so the recipe reconstructs the
// quantised weights (and the Theorem 5 certificate) exactly — the store
// never duplicates the parameter payload.
type QuantRecipe struct {
	NetworkID string        `json:"network_id"`
	Options   quant.Options `json:"options"`
}

// PutQuantized stores a quantised-model recipe (kind "quantized")
// referencing a stored network. The recipe is validated by running the
// quantisation once.
func (s *Store) PutQuantized(netRef string, opts quant.Options, meta map[string]string) (Entry, error) {
	net, netEntry, err := s.Network(netRef)
	if err != nil {
		return Entry{}, err
	}
	if _, err := quant.Quantize(net, opts); err != nil {
		return Entry{}, err
	}
	return s.Put(KindQuantized, QuantRecipe{NetworkID: netEntry.ID, Options: opts}, meta)
}

// Quantized reconstructs a stored quantised model by ID or unique
// prefix.
func (s *Store) Quantized(ref string) (*quant.Quantized, Entry, error) {
	e, err := s.Resolve(ref)
	if err != nil {
		return nil, Entry{}, err
	}
	if e.Kind != KindQuantized {
		return nil, Entry{}, fmt.Errorf("store: artifact %s is a %q, not a quantized model", shortID(e.ID), e.Kind)
	}
	var r QuantRecipe
	if _, err := s.Get(e.ID, &r); err != nil {
		return nil, Entry{}, err
	}
	net, _, err := s.Network(r.NetworkID)
	if err != nil {
		return nil, Entry{}, fmt.Errorf("store: quantized %s: %w", shortID(e.ID), err)
	}
	q, err := quant.Quantize(net, r.Options)
	if err != nil {
		return nil, Entry{}, err
	}
	return q, e, nil
}

// shortID abbreviates an ID for error messages and listings.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// ShortID abbreviates a content address for human-readable listings.
func ShortID(id string) string { return shortID(id) }
