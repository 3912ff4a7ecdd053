// Package routing implements oblivious routing over an FRT tree ensemble —
// the third application scenario of the paper's §9–10 family. The scheme is
// the classic tree-based one: route a demand (u, v) through the center of
// its lowest common cluster in an embedding tree, each leg a shortest path
// in G. Obliviousness is the point — the next-hop
// tables are computed once from the embedding, independent of the demand
// set, and the FRT stretch bound makes every routed path an expected
// O(log n)-approximation of the shortest path.
//
// The implementation rides entirely on the fast layers:
//
//   - trees come from the shared frt.Embedder pipeline (or an injected
//     ensemble, so a daemon serves routing from the same trees as its
//     distance oracle),
//   - the tree decomposition is read through frt.TreeIndex
//     (MergeHeight/Ancestor — O(log depth) per query, no pointer walks),
//   - the next-hop tables are one sparse-engine fixpoint
//     (mbf.RoutingTablesTo with the RouteMapModule aggregator fast path)
//     towards the distinct cluster centers, shared by all trees,
//   - paths are materialised by mbf.WalkRoute, one trusted hop at a time.
package routing

import (
	"fmt"
	"sort"

	"parmbf/internal/apps/scenario"
	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/mbf"
	"parmbf/internal/semiring"
)

// Options is the unified application-scenario configuration; see
// scenario.Options. Build draws Trees trees (default 4) through the shared
// embedder pipeline unless an Embedder or Ensemble is injected.
type Options = scenario.Options

// defaultTrees is the ensemble size Build uses when Options does not say
// otherwise: a handful of trees lets Route pick the best tree per pair,
// tightening the per-pair stretch without changing the oblivious tables.
const defaultTrees = 4

// Tables is a built oblivious-routing scheme: per-tree decompositions plus
// one shared next-hop table towards every cluster center.
type Tables struct {
	g     *graph.Graph
	trees []*frt.TreeIndex
	// tables[v] routes v towards every target center; one sparse fixpoint
	// serves all trees because the target set is the union of their centers.
	tables []semiring.RouteMap
	// isTarget marks the graph nodes the shared tables can route towards
	// (the internal-node centers of all trees). Segments ending elsewhere
	// are walked in reverse — valid on undirected graphs.
	isTarget []bool
}

// RouteResult is one routed demand.
type RouteResult struct {
	// Path is the walked node sequence from U to V (Path[0] = U, last = V);
	// every consecutive pair is an edge of G.
	Path []graph.Node
	// Length is the total edge weight of Path.
	Length float64
	// Tree is the index (into the built ensemble) of the tree that routed
	// the pair — the one with the smallest tree distance.
	Tree int
	// TreeDist is that tree's distance, an upper bound certificate:
	// Length ≤ TreeDist always (see Route).
	TreeDist float64
}

// Build constructs the oblivious routing tables for g.
func Build(g *graph.Graph, opts Options) (*Tables, error) {
	ens, err := opts.Resolve(g, defaultTrees)
	if err != nil {
		return nil, err
	}
	visit, err := opts.Visit(ens)
	if err != nil {
		return nil, err
	}
	rt := &Tables{g: g, isTarget: make([]bool, g.N())}
	for _, tree := range visit {
		tidx, err := frt.NewTreeIndex(tree)
		if err != nil {
			return nil, err
		}
		rt.trees = append(rt.trees, tidx)
		// Every internal tree node's center is a potential segment endpoint;
		// leaves' centers are the graph nodes themselves and need no table
		// entry (they are only ever walked *from*, or reached in reverse).
		isLeaf := make([]bool, tree.NumNodes())
		for _, l := range tree.Leaf {
			isLeaf[l] = true
		}
		for x := 0; x < tree.NumNodes(); x++ {
			if !isLeaf[x] {
				rt.isTarget[tree.Center[x]] = true
			}
		}
	}
	targets := make([]graph.Node, 0)
	for v, is := range rt.isTarget {
		if is {
			targets = append(targets, graph.Node(v))
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	if len(targets) > 0 {
		rt.tables = mbf.RoutingTablesTo(g, targets, opts.Tracker)
	}
	return rt, nil
}

// NumTrees returns the ensemble size the tables were built from.
func (rt *Tables) NumTrees() int { return len(rt.trees) }

// Route routes one demand obliviously: pick the tree with the smallest tree
// distance and walk from u to the center c of the pair's least common
// ancestor cluster, then on to v, each leg a shortest path in G via the
// shared next-hop tables. Both endpoints lie in the LCA cluster at level L,
// whose radius β2^L bounds each leg, so the walk is at most
// 2β2^L ≤ 4β(2^L − 2^imin) = TreeDist for every L ≥ imin+1 — the
// certificate Validate checks. Walking every center on the tree path
// instead could pay r_i + r_{i+1} = 3β2^i per hop against a tree edge of
// 2β2^i and break it.
func (rt *Tables) Route(u, v graph.Node) (*RouteResult, error) {
	if int(u) < 0 || int(u) >= rt.g.N() || int(v) < 0 || int(v) >= rt.g.N() {
		return nil, fmt.Errorf("routing: pair (%d, %d) out of range", u, v)
	}
	if u == v {
		return &RouteResult{Path: []graph.Node{u}}, nil
	}
	best, bestDist := 0, rt.trees[0].Dist(u, v)
	for t := 1; t < len(rt.trees); t++ {
		if d := rt.trees[t].Dist(u, v); d < bestDist {
			best, bestDist = t, d
		}
	}
	tidx := rt.trees[best]
	c := tidx.Tree().Center[tidx.Ancestor(u, tidx.MergeHeight(u, v))]
	path := []graph.Node{u}
	length := 0.0
	for _, hop := range [2][2]graph.Node{{u, c}, {c, v}} {
		a, b := hop[0], hop[1]
		if a == b {
			continue
		}
		seg := rt.segment(a, b)
		if seg == nil {
			return nil, fmt.Errorf("routing: nodes %d, %d disconnected", a, b)
		}
		for j := 1; j < len(seg); j++ {
			w, _ := rt.g.HasEdge(seg[j-1], seg[j])
			length += w
			path = append(path, seg[j])
		}
	}
	return &RouteResult{Path: path, Length: length, Tree: best, TreeDist: bestDist}, nil
}

// segment expands one leg a→b into a shortest path of G. Every leg has one
// endpoint in the target set (the LCA center is an internal center), so
// either a forward walk towards b or a reversed walk from b towards a
// applies.
func (rt *Tables) segment(a, b graph.Node) []graph.Node {
	if rt.isTarget[b] {
		return mbf.WalkRoute(rt.tables, a, b)
	}
	seg := mbf.WalkRoute(rt.tables, b, a)
	if seg == nil {
		return nil
	}
	for i, j := 0, len(seg)-1; i < j; i, j = i+1, j-1 {
		seg[i], seg[j] = seg[j], seg[i]
	}
	return seg
}

// RouteBatch routes every pair, stopping at the first error.
func (rt *Tables) RouteBatch(pairs []frt.Pair) ([]*RouteResult, error) {
	out := make([]*RouteResult, len(pairs))
	for i, p := range pairs {
		r, err := rt.Route(p.U, p.V)
		if err != nil {
			return nil, fmt.Errorf("routing: pair %d: %w", i, err)
		}
		out[i] = r
	}
	return out, nil
}

// Validate checks a routed result against g: endpoints match, every hop is a
// real edge, the length accounting is exact, and the tree-distance
// certificate holds.
func Validate(g *graph.Graph, u, v graph.Node, r *RouteResult) error {
	if len(r.Path) == 0 || r.Path[0] != u || r.Path[len(r.Path)-1] != v {
		return fmt.Errorf("routing: path endpoints %v do not match pair (%d, %d)", r.Path, u, v)
	}
	total := 0.0
	for i := 1; i < len(r.Path); i++ {
		w, ok := g.HasEdge(r.Path[i-1], r.Path[i])
		if !ok {
			return fmt.Errorf("routing: hop {%d, %d} is not an edge", r.Path[i-1], r.Path[i])
		}
		total += w
	}
	if diff := total - r.Length; diff > 1e-9 || diff < -1e-9 {
		return fmt.Errorf("routing: length accounting off by %v", diff)
	}
	if u != v && r.Length > r.TreeDist+1e-9 {
		return fmt.Errorf("routing: length %v exceeds the tree-distance certificate %v", r.Length, r.TreeDist)
	}
	return nil
}
