package mbf

import "parmbf/internal/graph"

// RunToFixpointFrom resumes a fixpoint computation from a caller-supplied
// state vector and seed frontier — the incremental-repair entry point of the
// frontier driver. It is the change-propagation dual of RunToFixpoint:
// instead of seeding from the non-⊥ initial states of a fresh run, the
// caller hands in an old fixpoint (or an old fixpoint with some nodes reset)
// plus the set of nodes whose state or whose inputs changed, and the driver
// re-aggregates outward from those seeds until the states stabilise again.
//
// The contract on (x0, seeds): x0 must already be filtered, and every node
// NOT in seeds must satisfy the fixpoint equation x0(v) = r(x0(v) ⊕ ⊕_w
// a_vw ⊙ x0(w)) under the runner's CURRENT graph — i.e. seeds must cover
// every node whose own state was modified by the caller (e.g. reset to a
// singleton after a non-monotone edit) and every endpoint of an edited edge.
// Nodes beyond the seeds' influence cone are then provably stable and are
// never visited, which is what makes a small edit cost O(affected), not
// Ω(n).
//
// Returns the repaired states (x0 is not modified; the result vector aliases
// unchanged states), the deduplicated set of nodes whose state actually
// changed at some iteration (in first-change order — the "affected cone" a
// caller patches downstream artifacts from), and the number of sparse
// iterations performed, including the final iteration that confirms the
// fixpoint. Duplicate seeds are tolerated.
func (r *Runner[S, M]) RunToFixpointFrom(x0 []M, seeds []graph.Node, maxIter int) ([]M, []graph.Node, int) {
	x := append([]M(nil), x0...)
	s := r.newSweep([][]M{x}, []BatchLane[M]{r.lane()})
	s.seedNodes(seeds)
	seen := make([]bool, len(x))
	var changed []graph.Node
	it := 0
	for ; it < maxIter && len(s.front) > 0; it++ {
		s.step()
		for _, v := range s.front {
			if !seen[v] {
				seen[v] = true
				changed = append(changed, v)
			}
		}
	}
	return x, changed, it
}
