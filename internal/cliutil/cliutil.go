// Package cliutil holds the argument-parsing helpers shared by the
// command-line tools, factored out of package main so they are unit
// testable.
package cliutil

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/conv"
	"repro/internal/nn"
)

// ParseWidths parses "16" or "16,8,4" into positive layer widths.
func ParseWidths(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("cliutil: bad width %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseFaults parses a fault distribution: a single integer is broadcast
// uniformly over the layers, a comma-separated list must match the layer
// count. Entries must be non-negative.
func ParseFaults(s string, layers int) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) == 1 {
		v, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("cliutil: bad fault count %q", s)
		}
		out := make([]int, layers)
		for i := range out {
			out[i] = v
		}
		return out, nil
	}
	if len(parts) != layers {
		return nil, fmt.Errorf("cliutil: %d fault entries for %d layers", len(parts), layers)
	}
	out := make([]int, layers)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("cliutil: bad fault count %q", p)
		}
		out[i] = v
	}
	return out, nil
}

// ClampFaults limits each entry to the layer width.
func ClampFaults(faults, widths []int) {
	for i := range faults {
		if i < len(widths) && faults[i] > widths[i] {
			faults[i] = widths[i]
		}
	}
}

// LoadNetwork reads a dense network document from disk. It loads
// through LoadModel, so a conv or graph document fails with an error
// naming its architecture.
func LoadNetwork(path string) (*nn.Network, error) {
	m, err := LoadModel(path)
	if err != nil {
		return nil, err
	}
	net, ok := m.(*nn.Network)
	if !ok {
		return nil, fmt.Errorf("%s holds a %s model; this command needs a dense network", path, conv.ArchOf(m))
	}
	return net, nil
}

// SaveNetwork writes a network as indented JSON.
func SaveNetwork(path string, net *nn.Network) error {
	return SaveModel(path, net)
}

// SaveModel writes any model (dense or conv) as indented JSON through
// its architecture's codec.
func SaveModel(path string, m nn.Model) error {
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadModel reads any architecture-tagged model document from disk:
// untagged dense networks, "conv1d", "conv2d" and "graph" nets.
func LoadModel(path string) (nn.Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := conv.ParseModel(data)
	if err != nil {
		return nil, fmt.Errorf("cliutil: parsing %s: %w", path, err)
	}
	return m, nil
}
