package mbf

import (
	"sync/atomic"

	"parmbf/internal/par"
)

// RunToFixpointDense is the dense reference fixpoint loop of the
// differential tests: every iteration re-aggregates all nodes and a full
// (early-exiting) vector comparison detects convergence. It computes exactly
// the states and iteration count of RunToFixpoint, except that an all-⊥
// input under a ⊥-preserving filter costs one confirming iteration the
// frontier driver skips.
func (r *Runner[S, M]) RunToFixpointDense(x0 []M, maxIter int) ([]M, int) {
	l := r.lane()
	x := make([]M, len(x0))
	for i, s := range x0 {
		x[i] = l.filter(s)
	}
	// Ping-pong between two vectors: iterateInto fully overwrites its output,
	// so the vector from two iterations ago can carry the next one.
	spare := make([]M, len(x))
	for it := 1; it <= maxIter; it++ {
		next := r.iterateInto(x, spare)
		if r.statesEqual(x, next) {
			return next, it
		}
		x, spare = next, x
	}
	return x, maxIter
}

// statesEqual compares two state vectors node-wise, in parallel, bailing out
// as soon as any worker finds a mismatch (the remaining indices only load
// one atomic flag each).
func (r *Runner[S, M]) statesEqual(x, y []M) bool {
	var diff atomic.Bool
	par.ForEach(len(x), func(i int) {
		if diff.Load() {
			return
		}
		if !r.Module.Equal(x[i], y[i]) {
			diff.Store(true)
		}
	})
	return !diff.Load()
}
