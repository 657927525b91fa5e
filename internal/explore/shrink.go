package explore

import (
	"errors"
	"slices"

	"alewife/internal/stress"
)

var errNotFailing = errors.New("explore: trace to shrink does not replay to a failure")

// ShrinkTrace minimizes a failing choice trace with the same loop
// stress.Shrink uses (stress.Minimize): it re-replays candidate reductions —
// tail truncation at halving granularity, then rewriting chunks of picks
// to the default — and keeps any candidate that still fails. A candidate
// whose replay diverges (the shortened trace no longer aligns with the
// run's choice points) is simply rejected, not an error; the trace being
// shrunk must itself replay to a failure. Kept candidates are
// re-canonicalized from the run's actual executed steps, so the result is
// always a valid, trailing-default-free trace. budget caps re-executions
// (<=0 picks a default).
func ShrinkTrace(cfg Config, steps []Step, budget int) ([]Step, stress.Result, error) {
	if budget <= 0 {
		budget = 150
	}
	bestRes, _, err := Replay(cfg, steps)
	if err != nil {
		return nil, stress.Result{}, err
	}
	if !bestRes.Failed() {
		return nil, stress.Result{}, errNotFailing
	}
	fails := func(cand []Step) ([]Step, bool) {
		res, got, err := Replay(cfg, cand)
		if err != nil || !res.Failed() {
			return nil, false
		}
		bestRes = res
		return trimDefaults(got[:min(len(got), len(cand))]), true
	}
	return stress.Minimize(trimDefaults(steps), defaultChunk, fails, budget), bestRes, nil
}

// defaultChunk returns a copy of steps with [off:off+size] forced to the
// default pick, or nil when the chunk already is all defaults.
func defaultChunk(steps []Step, off, size int) []Step {
	chunk := steps[off:min(off+size, len(steps))]
	if !slices.ContainsFunc(chunk, func(s Step) bool { return s.Pick != 0 }) {
		return nil
	}
	out := slices.Clone(steps)
	for i := range chunk {
		out[off+i].Pick = 0
	}
	return out
}
