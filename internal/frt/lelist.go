// Package frt implements metric tree embeddings in the style of
// Fakcharoenphol, Rao, and Talwar (FRT) as described in §7 of Friedrichs &
// Lenzen: Least-Element (LE) lists are computed by an MBF-like algorithm —
// either directly on a graph (the Khan et al. baseline, §8.1) or through the
// §5 oracle on the simulated graph H — and an FRT tree is assembled from
// them (Lemma 7.2). The package also contains the metric-input baseline in
// the style of Blelloch et al. [10] used by the work-crossover experiment.
package frt

import (
	"parmbf/internal/graph"
	"parmbf/internal/mbf"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// Order is the uniformly random total order on the nodes used by the FRT
// construction (§7.1 step 2): Rank[v] is v's position in a random
// permutation, so ranks are distinct and "v < w" in the paper's notation
// means Rank[v] < Rank[w].
type Order struct {
	Rank []uint64
}

// NewOrder draws a uniformly random total order on n nodes.
func NewOrder(n int, rng *par.RNG) *Order {
	rank := make([]uint64, n)
	for pos, v := range rng.Perm(n) {
		rank[v] = uint64(pos)
	}
	return &Order{Rank: rank}
}

// Less reports whether v precedes w in the random order.
func (o *Order) Less(v, w graph.Node) bool { return o.Rank[v] < o.Rank[w] }

// MinNode returns the first node of the order (the node of rank 0), the
// root center of every FRT tree drawn with this order.
func (o *Order) MinNode() graph.Node {
	for v, r := range o.Rank {
		if r == 0 {
			return graph.Node(v)
		}
	}
	panic("frt: empty order")
}

// Filter returns the LE-list representative projection r of Definition 7.3:
// an entry (w, x_w) survives iff no other entry (u, x_u) has Rank[u] <
// Rank[w] and x_u ≤ x_w. Lemma 7.5 shows r is a representative projection
// of a congruence relation on D, which is what entitles the oracle to apply
// it after every intermediate iteration.
//
// The surviving entries, read in order of increasing distance, have strictly
// decreasing ranks; their count is O(log n) w.h.p. for any input that does
// not depend on the random order (Lemma 7.6).
func (o *Order) Filter() semiring.Filter[semiring.DistMap] {
	inPlace := o.FilterInPlace()
	return func(x semiring.DistMap) semiring.DistMap {
		return inPlace(x.Clone())
	}
}

// FilterInPlace is Filter for caller-owned values: it sorts and compacts the
// surviving entries inside x's backing array, allocating nothing. The engine
// applies it to the freshly merged output of the aggregation fast path; it
// must never be used on shared DistMap values (see the type's aliasing
// contract in internal/semiring).
//
// Both variants compute the same representative: the survivor set is
// uniquely determined (ranks are distinct, so the (distance, rank) sort key
// has no ties), and the result is re-sorted by node ID.
func (o *Order) FilterInPlace() semiring.Filter[semiring.DistMap] {
	rank := o.Rank
	return func(x semiring.DistMap) semiring.DistMap {
		if x.Len() == 0 {
			return semiring.DistMap{}
		}
		// Sort by (distance, rank): a sweep then keeps exactly the entries
		// that no earlier entry dominates.
		x.SortFunc(func(a, b semiring.Entry) bool {
			if a.Dist != b.Dist {
				return a.Dist < b.Dist
			}
			return rank[a.Node] < rank[b.Node]
		})
		best := ^uint64(0)
		kept := x.Compact(func(e semiring.Entry) bool {
			if rank[e.Node] < best {
				best = rank[e.Node]
				return true
			}
			return false
		})
		kept.SortFunc(func(a, b semiring.Entry) bool { return a.Node < b.Node })
		return kept
	}
}

// SortByDist returns the LE list ordered by increasing distance (the form
// used by the tree construction): ranks strictly decrease along the result.
func SortByDist(x semiring.DistMap) semiring.DistMap {
	out := x.Clone()
	// Survivor distances are distinct up to the dominating entry, and node
	// IDs break any remaining ties, so this order is total.
	out.SortFunc(func(a, b semiring.Entry) bool {
		if a.Dist != b.Dist {
			return a.Dist < b.Dist
		}
		return a.Node < b.Node
	})
	return out
}

// InitialStates returns the LE-list initialisation x(0) of Definition 7.3:
// every node knows itself at distance 0. The singletons share one bulk
// backing allocation (see semiring.SingletonStates) — at large n the old
// per-node pair allocations dominated initialisation time and heap count.
func InitialStates(n int) []semiring.DistMap {
	return semiring.SingletonStates(n)
}

// LEListsOnGraph computes the LE lists of a graph directly, by iterating
// the MBF-like algorithm of Definition 7.3 on G until the fixpoint — the
// parallel form of the Khan et al. algorithm (§8.1). It takes O(SPD(G))
// iterations and is the baseline that the oracle-based computation on H
// beats when SPD(G) is large. The returned iteration count is the number of
// frontier-driver iterations performed, including the final one that
// confirms the fixpoint (see mbf.Runner.RunToFixpoint).
func LEListsOnGraph(g *graph.Graph, order *Order, tracker *par.Tracker) ([]semiring.DistMap, int) {
	lists, iters := LEListsOnGraphBatch(g, []*Order{order}, tracker)
	return lists[0], iters[0]
}

// LEListsOnGraphBatch computes the LE lists of a graph under B independent
// random orders — the B tree samples of an FRT ensemble — as the lanes of
// one frontier-driver run (mbf.Runner.RunToFixpointBatch): every iteration
// makes a single frontier pass serving all orders at once, with bit-packed
// lane masks tracking which orders can still change where. Lane b's lists
// and iteration count equal LEListsOnGraph(g, orders[b], …) exactly (pinned
// by the batch differential tests).
func LEListsOnGraphBatch(g *graph.Graph, orders []*Order, tracker *par.Tracker) ([][]semiring.DistMap, []int) {
	runner := &mbf.Runner[float64, semiring.DistMap]{
		Graph:   g,
		Module:  semiring.DistMapModule{},
		Weight:  mbf.MinPlusWeight,
		Size:    func(m semiring.DistMap) int { return m.Len() + 1 },
		Tracker: tracker,
	}
	xs := make([][]semiring.DistMap, len(orders))
	lanes := make([]mbf.BatchLane[semiring.DistMap], len(orders))
	for b, order := range orders {
		xs[b] = InitialStates(g.N())
		lanes[b] = mbf.BatchLane[semiring.DistMap]{
			Filter:        order.Filter(),
			FilterInPlace: order.FilterInPlace(),
		}
	}
	return runner.RunToFixpointBatch(xs, lanes, g.N())
}

// LEListsFromMetric computes LE lists directly from an explicit metric — the
// input model of Blelloch et al. [10], where the metric is a complete graph
// of SPD 1, so a single MBF-like iteration (here: one scan per node)
// suffices. Work is Θ(n²) by necessity of reading the metric.
func LEListsFromMetric(m *graph.Matrix, order *Order, tracker *par.Tracker) []semiring.DistMap {
	n := m.N
	out := make([]semiring.DistMap, n)
	filter := order.Filter()
	par.ForEach(n, func(v int) {
		full := semiring.NewDistMap(n)
		for w := 0; w < n; w++ {
			if d := m.At(v, w); !semiring.IsInf(d) {
				full = full.Append(graph.Node(w), d)
			}
		}
		out[v] = filter(full)
	})
	tracker.AddPhase(int64(n)*int64(n), 1)
	return out
}

// MaxLELength returns the longest LE list, the quantity bounded by
// O(log n) w.h.p. in Lemma 7.6 (experiment E4).
func MaxLELength(lists []semiring.DistMap) int {
	max := 0
	for _, l := range lists {
		if l.Len() > max {
			max = l.Len()
		}
	}
	return max
}
