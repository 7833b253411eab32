package serve

import (
	"context"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/rng"
)

// mcRange computes the worst-case error for Monte Carlo trials
// [base, base+len(errs)) into errs, sharded over the server's worker
// pool via ForCtx: cancellation or deadline stops the shards between
// trials and every in-flight chunk is joined before the error returns.
//
// The result is deterministic for a given seed regardless of pool
// size, scheduling, or the base offset: trial t always draws from the
// splittable stream rng.NewStream(seed, t), so sharding and
// checkpoint/resume only change who runs a trial, never what it
// samples — a resumed campaign is bit-identical to an uninterrupted
// one.
func (s *Server) mcRange(ctx context.Context, net nn.Model, perLayer []int, c float64, traces []*nn.Trace, seed uint64, base int, errs []float64) error {
	return s.pool.ForCtx(ctx, len(errs), 0, func(lo, hi int) {
		// The clean traces are shared by all shards (they are the
		// expensive part and are cached per network for the standard
		// input set); each chunk runs its own batched trial loop.
		fault.TrialErrors(net, perLayer, c, core.DeviationCap, traces, func(t int) *rng.Rand {
			return rng.NewStream(seed, uint64(base+lo+t))
		}, errs[lo:hi])
	})
}

// shardedMonteCarlo samples random failure configurations for the
// synchronous /v1/montecarlo path: one full sweep, no checkpointing.
//
// ctx bounds the campaign: when the request is abandoned (client gone,
// server shutting down) the shards stop between trials and ctx.Err()
// is returned — a 200,000-trial sweep must not keep burning the pool
// for a caller that already hung up.
func (s *Server) shardedMonteCarlo(ctx context.Context, net nn.Model, perLayer []int, c float64, traces []*nn.Trace, trials int, seed uint64) (fault.Profile, error) {
	errs := make([]float64, trials)
	if err := s.mcRange(ctx, net, perLayer, c, traces, seed, 0, errs); err != nil {
		return fault.Profile{}, err
	}
	return fault.ProfileOf(errs), nil
}
