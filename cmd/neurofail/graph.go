package main

import (
	"flag"
	"fmt"

	"repro/internal/activation"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/store"
)

// cmdGraph dispatches the arbitrary-topology subcommands. Only `gen`
// lives here — it generates a sparse-DAG model (layered, random-sparse
// or Watts-Strogatz small-world); the top-level bounds, inject,
// worstcase and montecarlo commands take graph documents like any other
// model.
func cmdGraph(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: neurofail graph gen [flags]")
	}
	switch args[0] {
	case "gen":
		return cmdGraphGen(args[1:])
	default:
		return fmt.Errorf("graph: unknown subcommand %q (want gen; bounds and inject are top-level commands)", args[0])
	}
}

func cmdGraphGen(args []string) error {
	fs := flag.NewFlagSet("graph gen", flag.ExitOnError)
	topology := fs.String("topology", "smallworld", "topology: layered, sparse or smallworld")
	in := fs.Int("in", 2, "input dimension")
	widthsArg := fs.String("widths", "8,8", "comma-separated hidden level widths")
	k := fs.Float64("k", 1, "Lipschitz constant of the tuned sigmoid")
	density := fs.Float64("density", 0.5, "in-edge density for -topology sparse")
	ring := fs.Int("ring", 2, "ring in-degree per node for -topology smallworld")
	beta := fs.Float64("beta", 0.3, "Watts-Strogatz rewiring probability for -topology smallworld")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "graph.json", "output file")
	storeDir := fs.String("store", "", "also save the model into the artifact store at this directory")
	fs.Parse(args)

	widths, err := cliutil.ParseWidths(*widthsArg)
	if err != nil {
		return err
	}
	act := activation.NewSigmoid(*k)
	r := rng.New(*seed)
	var g *graph.Net
	switch *topology {
	case "layered":
		g = graph.NewLayered(r, *in, widths, act)
	case "sparse":
		g = graph.NewSparse(r, *in, widths, act, *density)
	case "smallworld":
		g = graph.NewSmallWorld(r, *in, widths, act, *ring, *beta)
	default:
		return fmt.Errorf("graph gen: unknown topology %q (want layered, sparse or smallworld)", *topology)
	}
	if err := cliutil.SaveModel(*out, g); err != nil {
		return err
	}
	edges := 0
	for l := 1; l <= g.NumLayers()+1; l++ {
		for to := 0; to < g.Width(l); to++ {
			edges += g.FanIn(l, to)
		}
	}
	expressible := "layer-expressible (dense oracle available)"
	if !nn.IsLayered(g) {
		expressible = "not layer-expressible (skip connections present)"
	}
	fmt.Printf("generated %s graph: L=%d widths=%v edges=%d, %s -> %s\n",
		*topology, g.NumLayers(), core.ShapeOfModel(g).Widths, edges, expressible, *out)
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		entry, err := st.PutModel(g, map[string]string{"source": "graph gen", "topology": *topology})
		if err != nil {
			return err
		}
		fmt.Printf("stored as %s\n", entry.ID)
	}
	return nil
}
