package mbf

import "parmbf/internal/semiring"

// This file is the batched face of the frontier driver (frontier.go): B
// independent MBF-like instances — same graph, same semimodule, per-lane
// filters — advanced together, so one frontier pass serves every lane and a
// node's arc span is walked while hot for all the lanes that can still
// change there. Lane b's states and iteration count are exactly those of a
// solo RunToFixpoint under lane b's filter (pinned by the batch differential
// tests), because the lanes pushed onto a node always cover the solo
// engine's candidate set.

// BatchLane configures one lane of a batched sweep: its representative
// projection and the optional in-place variant (same contract as
// Runner.Filter/FilterInPlace). The zero BatchLane is the identity filter.
type BatchLane[M any] struct {
	Filter        semiring.Filter[M]
	FilterInPlace semiring.Filter[M]
}

func (l BatchLane[M]) filter(x M) M {
	if l.Filter == nil {
		return x
	}
	return l.Filter(x)
}

// ownedFilter returns the filter applied to values the engine owns
// exclusively: the in-place variant when provided, the pure one otherwise
// (nil for the identity lane).
func (l BatchLane[M]) ownedFilter() semiring.Filter[M] {
	if l.FilterInPlace != nil {
		return l.FilterInPlace
	}
	return l.Filter
}

// filterOwned filters a value the engine owns exclusively.
func (l BatchLane[M]) filterOwned(x M) M {
	if f := l.ownedFilter(); f != nil {
		return f(x)
	}
	return x
}

// RunToFixpointBatch iterates every lane to its fixpoint (or maxIter) with
// the lane-masked frontier driver. It returns the final lane vectors (the
// inputs are not modified) and, per lane, the number of iterations that
// lane was live for — including the final confirming one, exactly the count
// a solo RunToFixpoint of that lane returns.
func (r *Runner[S, M]) RunToFixpointBatch(x0s [][]M, lanes []BatchLane[M], maxIter int) ([][]M, []int) {
	xs := make([][]M, len(x0s))
	for b, x0 := range x0s {
		xs[b] = append([]M(nil), x0...)
	}
	s := r.newSweep(xs, lanes)
	s.seedFresh()
	iters := make([]int, len(lanes))
	for b := range iters {
		iters[b] = -1
	}
	for it := 0; ; it++ {
		for b := range iters {
			if iters[b] < 0 && s.live[b/64]&(1<<(b%64)) == 0 {
				iters[b] = it
			}
		}
		if len(s.front) == 0 || it == maxIter {
			for b := range iters {
				if iters[b] < 0 {
					iters[b] = maxIter
				}
			}
			return xs, iters
		}
		s.step()
	}
}
