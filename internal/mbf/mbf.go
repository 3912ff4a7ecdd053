// Package mbf implements the generic Moore-Bellman-Ford-like algorithm
// engine of §2 of Friedrichs & Lenzen, together with the algorithm zoo of §3
// built on top of it.
//
// An MBF-like algorithm is a triple (semimodule over a semiring, congruence
// relation with representative projection r, initial state vector x(0)); h
// iterations compute r^V A^h x(0), where A is the graph's adjacency matrix
// over the semiring (Definition 2.11). One iteration is
//
//	x'(v) = r( ⊕_{w ∈ V} a_{vw} ⊙ x(w) )
//	      = r( x(v) ⊕ ⊕_{{v,w} ∈ E} a_{vw} ⊙ x(w) ),
//
// since the adjacency matrix carries the multiplicative identity on its
// diagonal (each node keeps its own state) and the semiring zero for
// non-edges (nothing propagates). Corollary 2.17 (r^V ∼ id) lets the engine
// filter after every iteration without changing the output; this is what
// keeps intermediate states small and the work near-linear.
//
// # One frontier driver
//
// Every fixpoint entry point — RunToFixpoint, RunToFixpointBatch,
// RunToFixpointFrom and Stepper — is a thin wrapper over one sparse driver
// (frontier.go). Fixpoint loops (r^V A x iterated until the states stop
// changing, which happens after at most SPD(G) hops for the distance
// algebras) spend their late iterations re-deriving states that are already
// stable: x'(v) depends only on x at v and at v's neighbors, so if none of
// those states changed in the previous iteration, recomputing v reproduces
// x(v) exactly. The driver exploits this with change propagation over B
// lanes — independent instances sharing the graph and semimodule, each with
// its own filter (B = 1 is the common case):
//
//   - the frontier after an iteration is the set of nodes whose filtered
//     state changed in some lane, each with a bit mask of those lanes;
//   - the next iteration pushes every frontier node's mask onto the node
//     itself (its own state feeds its next state through the diagonal) and
//     onto its in-neighbors (graph.Graph.InNeighbors, the transpose view,
//     which is the graph itself for the symmetric graphs this library
//     builds), and re-aggregates each touched node for exactly the lanes
//     pushed onto it;
//   - all other (node, lane) states are left untouched.
//
// A fresh run seeds lane b's frontier with the nodes whose filtered x(0) is
// non-⊥: a node that is ⊥ with an all-⊥ in-neighborhood stays ⊥, because
// the semimodule is zero-preserving and a representative projection maps ⊥
// to ⊥. A lane whose filter does not (no filter in this library) is seeded
// with every node instead; once every node has been recomputed once, change
// propagation is exact for any filter. A lane reaches its fixpoint exactly
// when its frontier empties — no state-vector comparison pass is needed —
// and its states equal, per Module.Equal at every node after every
// iteration, those of the dense loop that re-aggregates every node (kept in
// the tests as the differential reference). Iterate and Run remain as the
// fixed-h dense path.
package mbf

import (
	"sync"
	"sync/atomic"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// Runner executes MBF-like iterations of one algorithm on one graph.
//
// The semiring element type S is the type of adjacency-matrix entries; the
// module type M is the type of node states. Weight translates a graph arc
// into its adjacency-matrix entry a_{from,to} — for the min-plus and max-min
// algebras this is simply the edge weight, for the all-paths semiring it is
// the single-edge path set, and for the Boolean semiring it is "true".
type Runner[S, M any] struct {
	// Graph is the input graph G.
	Graph *graph.Graph
	// Module is the zero-preserving semimodule M over the semiring.
	Module semiring.Semimodule[S, M]
	// Filter is the representative projection r. Nil means the identity.
	Filter semiring.Filter[M]
	// FilterInPlace, if non-nil, must compute the same function as Filter
	// but may reuse its argument's storage. The engine applies it only to
	// values it owns exclusively — the freshly merged output of the
	// Aggregator fast path — saving the copy a pure Filter would make.
	// Callers that set it must also set Filter (the generic path and the
	// initial-state projection still go through Filter).
	FilterInPlace semiring.Filter[M]
	// Weight translates the arc from→to of weight w into a_{from,to} ∈ S.
	Weight func(from, to graph.Node, w float64) S
	// Size measures the representation size of a node state (e.g. the
	// number of non-∞ entries of a distance map, Lemma 2.3). It is used for
	// work accounting only; nil means size 1 per state.
	Size func(M) int
	// PropagatedSize, if non-nil, returns Size(Module.SMul(s, x)) without
	// materialising the propagated state. The aggregation fast path uses it
	// to charge the Tracker exactly what the generic fold charges for a
	// propagated term; nil approximates by Size(x), which is exact for the
	// shift-style modules of this library (DistMap, WidthMap, BoolSet, the
	// scalar algebras) whenever Weight never returns the semiring zero — a
	// dead edge, whose SMul collapses the state to ⊥. Set it when a custom
	// Weight can return the zero and exact work accounting matters.
	PropagatedSize func(s S, x M) int
	// Tracker, if non-nil, is charged the work/depth of every iteration in
	// the DAG cost model of §1.2. Sparse iterations charge only the nodes
	// they actually re-aggregate — the work performed, not the work a dense
	// iteration would have performed.
	Tracker *par.Tracker

	// scratch recycles per-worker buffers of the aggregation fast path, so
	// steady-state iterations allocate only the output states.
	scratch sync.Pool // *iterScratch[S, M]
}

// iterScratch is one worker's reusable aggregation state: the term buffer
// handed to Aggregate plus the module's k-way-merge scratch.
type iterScratch[S, M any] struct {
	terms []semiring.Term[S, M]
	sc    semiring.Scratch
}

// kernel is the module's aggregation dispatch, resolved once per sweep:
// generic interface assertions go through the runtime, far too slow to
// repeat per node.
type kernel[S, M any] struct {
	agg  semiring.Aggregator[S, M]
	fa   semiring.FilteredAggregator[S, M]
	fast bool
}

func (r *Runner[S, M]) kernel() kernel[S, M] {
	var k kernel[S, M]
	k.agg, k.fast = r.Module.(semiring.Aggregator[S, M])
	k.fa, _ = r.Module.(semiring.FilteredAggregator[S, M])
	return k
}

// lane is the runner's own filter pair, the single lane of a solo run.
func (r *Runner[S, M]) lane() BatchLane[M] {
	return BatchLane[M]{Filter: r.Filter, FilterInPlace: r.FilterInPlace}
}

func (r *Runner[S, M]) size(x M) int {
	if r.Size == nil {
		return 1
	}
	return r.Size(x)
}

func (r *Runner[S, M]) propagatedSize(s S, x M) int {
	if r.PropagatedSize != nil {
		return r.PropagatedSize(s, x)
	}
	return r.size(x)
}

// getIter pops a pooled per-worker aggregation scratch; putIter drops the
// state references the term buffer accumulated since getIter and returns it
// to the pool. The iteration loops call the pair once per ForEachChunk range,
// not once per node: the pool round trip and the reference-dropping barrier
// writes are per-worker-chunk costs, which matters on wavefront-shaped
// fixpoints where most recomputes are near-trivial.
func (r *Runner[S, M]) getIter() *iterScratch[S, M] {
	st, _ := r.scratch.Get().(*iterScratch[S, M])
	if st == nil {
		st = new(iterScratch[S, M])
	}
	return st
}

func (r *Runner[S, M]) putIter(st *iterScratch[S, M]) {
	t := st.terms[:cap(st.terms)]
	var zero semiring.Term[S, M]
	for i := range t {
		t[i] = zero // drop state references so the pool cannot pin them
	}
	r.scratch.Put(st)
}

// recompute is the one per-node kernel of every engine loop: it derives
// node v's next state x'(v) = r(x(v) ⊕ ⊕_w a_vw ⊙ x(w)) under lane l's
// filter — through the k-way aggregation fast path when the module provides
// one, through the generic Add/SMul fold otherwise — and returns it together
// with the work to charge for the node (0 when no Tracker is attached). Both
// paths charge identically: the node's own state, every propagated state,
// and the filtered output. st carries the worker's pooled term buffer and
// merge scratch; the fast path leaves its state references in st.terms for
// putIter to drop once per chunk. The lane and kernel come by pointer: by
// value they overflow the argument registers of this per-node call.
func (r *Runner[S, M]) recompute(vi int, x []M, l *BatchLane[M], st *iterScratch[S, M], k *kernel[S, M]) (M, int64) {
	g := r.Graph
	v := graph.Node(vi)
	var work int64
	if k.fast {
		terms := st.terms[:0]
		for _, a := range g.Neighbors(v) {
			terms = append(terms, semiring.Term[S, M]{S: r.Weight(v, a.To, a.Weight), X: x[a.To]})
		}
		var out M
		if k.fa != nil {
			// Fused merge-and-filter: the raw merge lives in scratch and only
			// the filtered survivors are allocated (right-sized states keep
			// the vector cache-dense for the next iteration).
			out = k.fa.AggregateFiltered(&st.sc, x[vi], terms, l.ownedFilter())
		} else {
			out = l.filterOwned(k.agg.Aggregate(&st.sc, x[vi], terms))
		}
		if r.Tracker != nil {
			work = int64(r.size(x[vi]))
			for _, t := range terms {
				work += int64(r.propagatedSize(t.S, t.X))
			}
			work += int64(r.size(out))
		}
		st.terms = terms[:0]
		return out, work
	}
	// Diagonal term: a_{vv} = 1, so the node keeps its own state.
	acc := x[vi]
	if r.Tracker != nil {
		work = int64(r.size(acc))
	}
	for _, a := range g.Neighbors(v) {
		// Propagate the neighbor's state over the edge, then aggregate.
		s := r.Weight(v, a.To, a.Weight)
		propagated := r.Module.SMul(s, x[a.To])
		acc = r.Module.Add(acc, propagated)
		if r.Tracker != nil {
			work += int64(r.size(propagated))
		}
	}
	out := l.filter(acc)
	if r.Tracker != nil {
		work += int64(r.size(out))
	}
	return out, work
}

// charge books one (possibly sparse) iteration as a parallel phase.
// Aggregation of k items costs O(log k) depth (Lemma 2.3); we charge one
// depth unit per iteration since sizes are polylogarithmic after filtering.
func (r *Runner[S, M]) charge(work *atomic.Int64) {
	if r.Tracker != nil {
		r.Tracker.AddPhase(work.Load(), 1)
	}
}

// Iterate performs one MBF-like iteration x ↦ r^V(Ax), parallelised over
// nodes. The input is not modified.
//
// When the module implements semiring.Aggregator, each node's neighborhood
// is aggregated in one k-way merge over pooled scratch buffers — the
// Lemma 2.3 fast path, which allocates only the merged result — and the
// (identical) in-place filter is applied to it when available. Otherwise the
// generic Add/SMul fold of Definition 2.11 runs; both paths compute the same
// states.
func (r *Runner[S, M]) Iterate(x []M) []M {
	n := r.Graph.N()
	if len(x) != n {
		panic("mbf: state vector length does not match graph size")
	}
	return r.iterateInto(x, make([]M, n))
}

// iterateInto is Iterate writing into a caller-provided output vector, which
// it fully overwrites and returns, so a dense loop can ping-pong two vectors
// instead of allocating one per iteration.
func (r *Runner[S, M]) iterateInto(x, out []M) []M {
	l, k := r.lane(), r.kernel()
	var work atomic.Int64
	par.ForEachChunk(len(x), func(start, end int) {
		// Per-chunk copies: passing the captured variables' addresses would
		// move them to the heap on every Iterate.
		l, k := l, k
		st := r.getIter()
		var sum int64
		for vi := start; vi < end; vi++ {
			s, w := r.recompute(vi, x, &l, st, &k)
			out[vi] = s
			sum += w
		}
		r.putIter(st)
		work.Add(sum)
	})
	r.charge(&work)
	return out
}

// RunToFixpoint iterates until the filtered state vector stops changing or
// maxIter iterations have run, returning the final states and the number of
// iterations performed — including the final iteration that confirms the
// fixpoint. A fixpoint is reached after at most SPD(G) hops for the distance
// algebras (§1.2), so the count is SPD-related + 1 when it converges.
//
// It is the one-lane case of RunToFixpointBatch: the frontier driver seeds
// with the non-⊥ filtered initial states, re-aggregates only nodes that can
// still change, and never scans the full vector for equality. An all-⊥ input
// is recognised as a fixpoint immediately, with 0 iterations (unless the
// filter resurrects ⊥, which seeds every node).
func (r *Runner[S, M]) RunToFixpoint(x0 []M, maxIter int) ([]M, int) {
	xs, iters := r.RunToFixpointBatch([][]M{x0}, []BatchLane[M]{r.lane()}, maxIter)
	return xs[0], iters[0]
}

// Run performs h iterations starting from x0 and returns r^V A^h x(0).
// The initial filter application is included (states are kept filtered
// throughout, which Corollary 2.17 shows is equivalent).
func (r *Runner[S, M]) Run(x0 []M, h int) []M {
	l := r.lane()
	x := make([]M, len(x0))
	for i, s := range x0 {
		x[i] = l.filter(s)
	}
	for i := 0; i < h; i++ {
		x = r.Iterate(x)
	}
	return x
}

// MinPlusWeight is the Weight function of the min-plus algebras: the
// adjacency entry is the edge weight itself (Equation 1.4).
func MinPlusWeight(_, _ graph.Node, w float64) float64 { return w }

// MaxMinWeight is the Weight function of the max-min algebras
// (Equation 3.9).
func MaxMinWeight(_, _ graph.Node, w float64) float64 { return w }

// BoolWeight is the Weight function of the Boolean algebra
// (Equation 3.28): every edge propagates.
func BoolWeight(_, _ graph.Node, _ float64) bool { return true }

// HopWeight is the Weight function of the next-hop-enriched min-plus
// algebra (HopSemiring): the arc from→to carries the edge weight and stamps
// to as the first hop of every route it relaxes.
func HopWeight(_, to graph.Node, w float64) semiring.Hop {
	return semiring.Hop{W: w, Via: to}
}

// PathWeight is the Weight function of the all-paths semiring
// (Equation 3.18): the arc from→to becomes the single-edge path (from, to)
// with its weight.
func PathWeight(from, to graph.Node, w float64) semiring.PathSet {
	return semiring.PathSet{semiring.MakePath(from, to): w}
}
