package main

import (
	"flag"
	"fmt"

	"repro/internal/activation"
	"repro/internal/cliutil"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/store"
)

// cmdConv dispatches the convolutional subcommands. Only `train` lives
// here — it fits a 1-D or 2-D conv net on a shift-invariant synthetic
// task; the top-level bounds, inject, worstcase and montecarlo commands
// take conv documents like any other model.
func cmdConv(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: neurofail conv train [flags]")
	}
	switch args[0] {
	case "train":
		return cmdConvTrain(args[1:])
	default:
		return fmt.Errorf("conv: unknown subcommand %q (want train; bounds and inject are top-level commands)", args[0])
	}
}

// convDataset1D samples the shift-invariant edge task: the strongest
// centre-minus-neighbours response over the signal.
func convDataset1D(r *rng.Rand, width, n int) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, width)
		r.Floats(xs[i], 0, 1)
		best := 0.0
		for j := 0; j+2 < width; j++ {
			if v := xs[i][j+1] - (xs[i][j]+xs[i][j+2])/2; v > best {
				best = v
			}
		}
		ys[i] = best
	}
	return xs, ys
}

// convDataset2D samples the brightest-2x2-patch task.
func convDataset2D(r *rng.Rand, h, w, n int) ([][]float64, []float64) {
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = make([]float64, h*w)
		r.Floats(xs[i], 0, 1)
		best := 0.0
		for rr := 0; rr+1 < h; rr++ {
			for c := 0; c+1 < w; c++ {
				v := (xs[i][rr*w+c] + xs[i][rr*w+c+1] + xs[i][(rr+1)*w+c] + xs[i][(rr+1)*w+c+1]) / 4
				if v > best {
					best = v
				}
			}
		}
		ys[i] = best
	}
	return xs, ys
}

func cmdConvTrain(args []string) error {
	fs := flag.NewFlagSet("conv train", flag.ExitOnError)
	arch := fs.String("arch", "2d", "architecture: 1d or 2d")
	width := fs.Int("width", 12, "input signal width (1d)")
	rows := fs.Int("rows", 8, "input height (2d)")
	cols := fs.Int("cols", 8, "input width (2d)")
	fieldsArg := fs.String("fields", "3", "comma-separated receptive field sizes per layer")
	filtersArg := fs.String("filters", "2", "comma-separated filter counts per layer")
	k := fs.Float64("k", 1, "Lipschitz constant of the tuned sigmoid")
	epochs := fs.Int("epochs", 150, "training epochs")
	samples := fs.Int("samples", 300, "training sample size")
	lr := fs.Float64("lr", 0.3, "learning rate")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "conv.json", "output file")
	storeDir := fs.String("store", "", "also save the model into the artifact store at this directory")
	fs.Parse(args)

	fields, err := cliutil.ParseWidths(*fieldsArg)
	if err != nil {
		return err
	}
	filters, err := cliutil.ParseWidths(*filtersArg)
	if err != nil {
		return err
	}
	act := activation.NewSigmoid(*k)
	r := rng.New(*seed)
	var model nn.Model
	var mse float64
	var task string
	switch *arch {
	case "1d":
		net, err := conv.NewRandom(r.Split(), *width, fields, filters, act, 0.5, true)
		if err != nil {
			return err
		}
		xs, ys := convDataset1D(r.Split(), *width, *samples)
		mse = conv.Train(net, xs, ys, conv.TrainConfig{Epochs: *epochs, LR: *lr, Seed: *seed})
		model, task = net, fmt.Sprintf("edge detection on width-%d signals", *width)
	case "2d":
		net, err := conv.NewRandom2D(r.Split(), *rows, *cols, fields, filters, act, 0.5, true)
		if err != nil {
			return err
		}
		xs, ys := convDataset2D(r.Split(), *rows, *cols, *samples)
		mse = conv.Train2D(net, xs, ys, conv.TrainConfig{Epochs: *epochs, LR: *lr, Seed: *seed})
		model, task = net, fmt.Sprintf("brightest patch on %dx%d images", *rows, *cols)
	default:
		return fmt.Errorf("conv train: unknown arch %q (want 1d or 2d)", *arch)
	}
	if err := cliutil.SaveModel(*out, model); err != nil {
		return err
	}
	s := core.ShapeOfModel(model)
	fmt.Printf("trained %s conv net (%s): MSE %.5f, widths %v -> %s\n",
		conv.ArchOf(model), task, mse, s.Widths, *out)
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		entry, err := st.PutModel(model, map[string]string{"source": "conv train"})
		if err != nil {
			return err
		}
		fmt.Printf("stored as %s\n", entry.ID)
	}
	return nil
}
