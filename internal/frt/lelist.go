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

// Filter returns the LE-list representative projection r of Definition 7.3
// on node-keyed maps: an entry (w, x_w) survives iff no other entry
// (u, x_u) has Rank[u] < Rank[w] and x_u ≤ x_w. Lemma 7.5 shows r is a
// representative projection of a congruence relation on D, which is what
// entitles the oracle to apply it after every intermediate iteration.
//
// The surviving entries, read in order of increasing distance, have strictly
// decreasing ranks; their count is O(log n) w.h.p. for any input that does
// not depend on the random order (Lemma 7.6).
//
// The package's own fixpoints key their entries by rank instead and filter
// with the order-free rankFilter; this node-keyed form serves callers that
// run their own fixpoint on node-keyed states (congest, traced replays).
func (o *Order) Filter() semiring.Filter[semiring.DistMap] {
	inPlace := o.FilterInPlace()
	return func(x semiring.DistMap) semiring.DistMap {
		return inPlace(x.Clone())
	}
}

// FilterInPlace is Filter for caller-owned values: it filters inside x's
// backing array, allocating nothing. The engine applies it to the freshly
// merged output of the aggregation fast path; it must never be used on
// shared DistMap values (see the type's aliasing contract in
// internal/semiring).
//
// It rekeys x by rank, applies the rank-keyed scan of rankFilterInPlace,
// and rekeys the survivors back to node IDs, so there is one selection rule
// for both keyings.
func (o *Order) FilterInPlace() semiring.Filter[semiring.DistMap] {
	k := o.keys()
	return func(x semiring.DistMap) semiring.DistMap {
		if x.Len() == 0 {
			return semiring.DistMap{}
		}
		return rankFilterInPlace(x.RekeyInPlace(k.toRank)).RekeyInPlace(k.toNode)
	}
}

// rankFilterInPlace is Definition 7.3 on rank-keyed maps, whose entries sit
// in rank order: one scan keeps an entry iff its distance is strictly below
// every lower-ranked entry's. Distance ties go to the lower rank, as the
// definition requires. Like FilterInPlace it may only touch caller-owned
// values.
func rankFilterInPlace(x semiring.DistMap) semiring.DistMap {
	if x.Len() == 0 {
		return semiring.DistMap{}
	}
	return x.PrefixMinimaInPlace()
}

// rankFilter is the pure form of rankFilterInPlace.
func rankFilter(x semiring.DistMap) semiring.DistMap {
	return rankFilterInPlace(x.Clone())
}

// rankKeys translates between node IDs and the order's ranks. Inside the
// package's LE fixpoints every DistMap entry is keyed by the rank π(v) of
// its node: the k-way merge then emits entries in rank order, so the LE
// filter is a linear scan (rankFilterInPlace) instead of two sorts. Lists
// are translated back to node keys once, when they leave the package.
type rankKeys struct {
	toRank []semiring.NodeID // toRank[v] = π(v)
	toNode []semiring.NodeID // toNode[π(v)] = v
}

// keys builds the order's translation tables. Rank must be a permutation of
// 0, …, n−1, as NewOrder draws it.
func (o *Order) keys() rankKeys {
	k := rankKeys{
		toRank: make([]semiring.NodeID, len(o.Rank)),
		toNode: make([]semiring.NodeID, len(o.Rank)),
	}
	for v, r := range o.Rank {
		k.toRank[v] = semiring.NodeID(r)
		k.toNode[r] = semiring.NodeID(v)
	}
	return k
}

// initialStates is InitialStates keyed by rank: x(0)_v = {π(v): 0}.
func (k rankKeys) initialStates() []semiring.DistMap {
	return semiring.KeyedSingletonStates(len(k.toRank), k.toRank)
}

// nodeKeyed translates rank-keyed lists to fresh node-keyed ones.
func (k rankKeys) nodeKeyed(lists []semiring.DistMap) []semiring.DistMap {
	return semiring.Rekeyed(lists, k.toNode)
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
// by the batch differential tests). The fixpoint runs on rank-keyed lists
// (see rankKeys); each lane is translated back to node keys at the end.
func LEListsOnGraphBatch(g *graph.Graph, orders []*Order, tracker *par.Tracker) ([][]semiring.DistMap, []int) {
	keys, ranked, iters := leListsRanked(g, orders, tracker)
	lists := make([][]semiring.DistMap, len(orders))
	for b, k := range keys {
		lists[b] = k.nodeKeyed(ranked[b])
	}
	return lists, iters
}

// leListsRanked is LEListsOnGraphBatch without the final translation: it
// returns every lane's lists keyed by rank, with the lanes' key tables. All
// lanes share the order-free rank filter; only their initial states carry
// the orders.
func leListsRanked(g *graph.Graph, orders []*Order, tracker *par.Tracker) ([]rankKeys, [][]semiring.DistMap, []int) {
	keys := make([]rankKeys, len(orders))
	xs := make([][]semiring.DistMap, len(orders))
	lanes := make([]mbf.BatchLane[semiring.DistMap], len(orders))
	for b, o := range orders {
		keys[b] = o.keys()
		xs[b] = keys[b].initialStates()
		lanes[b] = mbf.BatchLane[semiring.DistMap]{Filter: rankFilter, FilterInPlace: rankFilterInPlace}
	}
	lists, iters := leRunner(g, tracker).RunToFixpointBatch(xs, lanes, g.N())
	return keys, lists, iters
}

// leRunner builds the runner of the rank-keyed LE fixpoint on g (Definition
// 7.3). The rank filter is order-free, so one runner serves every order.
func leRunner(g *graph.Graph, tracker *par.Tracker) *mbf.Runner[float64, semiring.DistMap] {
	return &mbf.Runner[float64, semiring.DistMap]{
		Graph:         g,
		Module:        semiring.DistMapModule{},
		Filter:        rankFilter,
		FilterInPlace: rankFilterInPlace,
		Weight:        mbf.MinPlusWeight,
		Size:          func(m semiring.DistMap) int { return m.Len() + 1 },
		Tracker:       tracker,
	}
}

// LEListsFromMetric computes LE lists directly from an explicit metric — the
// input model of Blelloch et al. [10], where the metric is a complete graph
// of SPD 1, so a single MBF-like iteration (here: one scan per node)
// suffices. Each node walks the candidates in rank order and appends only
// the survivors of Definition 7.3 (distance strictly below every earlier
// candidate's), so work is Θ(n²) — by necessity of reading the metric —
// with no sort.
func LEListsFromMetric(m *graph.Matrix, order *Order, tracker *par.Tracker) []semiring.DistMap {
	n := m.N
	k := order.keys()
	ranked := make([]semiring.DistMap, n)
	par.ForEach(n, func(v int) {
		var l semiring.DistMap
		best := semiring.Inf
		for r, w := range k.toNode {
			if d := m.At(v, int(w)); d < best {
				best = d
				l = l.Append(semiring.NodeID(r), d)
			}
		}
		ranked[v] = l
	})
	tracker.AddPhase(int64(n)*int64(n), 1)
	return k.nodeKeyed(ranked)
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
