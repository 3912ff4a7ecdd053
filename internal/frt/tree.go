package frt

import (
	"fmt"
	"math"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// Tree is a sampled FRT tree: a hierarchy of clusters whose leaves are the
// graph nodes (§7.1 step 4). Tree nodes are dense integers; index 0 is the
// root.
//
// Every leaf sits at the same depth. The edge connecting a level-i cluster
// to its level-(i+1) parent has weight 2·β·2^i — twice the paper's β2^i.
// The doubling is a deliberate implementation choice: with edge weight
// exactly β2^i, dominance dist_T ≥ dist_H can be violated by an additive
// O(β·2^imin) term at the truncated bottom of the hierarchy, whereas with
// the doubled weights dominance holds unconditionally (if u, v first differ
// at level i they share a center at level i+1, so dist_H(u,v) ≤ 2β2^{i+1},
// while dist_T(u,v) = 2·Σ_{j≤i} 2β2^j = 4β(2^{i+1}−2^imin) ≥ 2β2^{i+1}).
// It costs only a factor 2 in the upper bound, so the expected stretch
// remains O(log n).
type Tree struct {
	// Parent[t] is the parent tree node of t, or -1 for the root.
	Parent []int32
	// EdgeWeight[t] is the weight of the edge from t to its parent (0 for
	// the root).
	EdgeWeight []float64
	// Center[t] is the "leading" graph node of the cluster, i.e. v_i of the
	// suffix (v_i, …, v_k) the tree node represents (§7.5 identifies tree
	// nodes with their leading nodes for path reconstruction).
	Center []graph.Node
	// Level[t] is the level index i of the cluster (imin ≤ i ≤ imax).
	Level []int32
	// Leaf[v] is the leaf tree node of graph node v.
	Leaf []int32
	// Beta is the random scale β ∈ [1, 2) the tree was drawn with.
	Beta float64
}

// NumNodes returns the number of tree nodes.
func (t *Tree) NumNodes() int { return len(t.Parent) }

// Depth returns the number of levels from leaf to root (every leaf has the
// same depth). An empty tree has depth 0.
func (t *Tree) Depth() int {
	if len(t.Leaf) == 0 {
		return 0
	}
	d := 0
	for u := t.Leaf[0]; u != -1; u = t.Parent[u] {
		d++
	}
	return d - 1
}

// Dist returns the tree distance between the leaves of graph nodes u and v:
// the weight of the unique tree path between them. Both leaves are at equal
// depth, so the walk climbs in lockstep until the paths merge. The two
// half-paths are summed separately, bottom-up, so the result is bitwise
// identical to TreeIndex.Dist, which answers from per-leaf prefix sums.
//
// On a tree violating the uniform-leaf-depth invariant (a structural error
// that Validate reports) Dist returns +Inf rather than panicking.
func (t *Tree) Dist(u, v graph.Node) float64 {
	if u == v {
		return 0
	}
	a, b := t.Leaf[u], t.Leaf[v]
	var du, dv float64
	for a != b {
		if a == -1 || b == -1 {
			return math.Inf(1) // leaves at unequal depth; see Validate
		}
		du += t.EdgeWeight[a]
		dv += t.EdgeWeight[b]
		a, b = t.Parent[a], t.Parent[b]
	}
	return du + dv
}

// PathToRoot returns the tree nodes from v's leaf up to the root.
func (t *Tree) PathToRoot(v graph.Node) []int32 {
	var out []int32
	for u := t.Leaf[v]; u != -1; u = t.Parent[u] {
		out = append(out, u)
	}
	return out
}

// Validate checks the structural invariants of the tree: consistent array
// lengths, a single root, acyclic parent pointers, leaves in range and at
// uniform depth, positive edge weights, and centers consistent with levels.
// It returns nil if all hold; it never panics, so it is safe to call on
// trees assembled from untrusted input (ReadTree relies on this).
func (t *Tree) Validate() error {
	n := len(t.Leaf)
	if t.NumNodes() == 0 {
		return fmt.Errorf("empty tree")
	}
	if len(t.EdgeWeight) != t.NumNodes() || len(t.Center) != t.NumNodes() || len(t.Level) != t.NumNodes() {
		return fmt.Errorf("inconsistent array lengths: %d parents, %d weights, %d centers, %d levels",
			t.NumNodes(), len(t.EdgeWeight), len(t.Center), len(t.Level))
	}
	roots := 0
	for u, p := range t.Parent {
		if p < -1 || int(p) >= t.NumNodes() {
			return fmt.Errorf("tree node %d: parent %d out of range", u, p)
		}
		if int32(u) == p {
			return fmt.Errorf("tree node %d is its own parent", u)
		}
		if p == -1 {
			roots++
			if t.EdgeWeight[u] != 0 {
				return fmt.Errorf("root with non-zero edge weight")
			}
			continue
		}
		// The negated comparison also rejects NaN, which would otherwise
		// slip past a plain <= 0 test and poison every distance query.
		if !(t.EdgeWeight[u] > 0) || math.IsInf(t.EdgeWeight[u], 1) {
			return fmt.Errorf("tree node %d: edge weight %v not positive and finite", u, t.EdgeWeight[u])
		}
		if t.Level[p] != t.Level[u]+1 {
			return fmt.Errorf("tree node %d: level %d but parent level %d", u, t.Level[u], t.Level[p])
		}
	}
	if roots != 1 {
		return fmt.Errorf("%d roots, want 1", roots)
	}
	depth := -1
	for v := 0; v < n; v++ {
		if t.Leaf[v] < 0 || int(t.Leaf[v]) >= t.NumNodes() {
			return fmt.Errorf("leaf of %d out of range: %d", v, t.Leaf[v])
		}
		d := 0
		for u := t.Leaf[v]; u != -1; u = t.Parent[u] {
			d++
			if d > t.NumNodes() {
				return fmt.Errorf("cycle in parent pointers")
			}
		}
		if depth == -1 {
			depth = d
		} else if d != depth {
			return fmt.Errorf("leaf depths differ: %d vs %d", d, depth)
		}
		if t.Center[t.Leaf[v]] != graph.Node(v) {
			return fmt.Errorf("leaf of %d has center %d", v, t.Center[t.Leaf[v]])
		}
	}
	return nil
}

// levelWeights returns w[h], the weight of the edge from every height-h
// node on a leaf-to-root path to its parent (h = 0 the leaves, len(w) the
// leaf depth). It fails when the tree is not level-uniform — two height-h
// nodes on leaf paths hang by edges of different weight — and, without
// panicking, when a leaf's parent chain is broken or of unequal length.
// BuildTree's trees are level-uniform by construction (a level-i edge
// weighs 2β2^i); OracleIndex and the snapshot format require it.
func (t *Tree) levelWeights() ([]float64, error) {
	depth, ok := leafDepth(t)
	if !ok {
		return nil, fmt.Errorf("broken parent chain at leaf 0 (run Validate for details)")
	}
	w := make([]float64, depth)
	// seen[u] is u's height+1 once a leaf path reached u: the path above it
	// was checked already.
	seen := make([]int32, t.NumNodes())
	for v, u := range t.Leaf {
		for h := 0; ; h++ {
			if u < 0 || int(u) >= t.NumNodes() {
				return nil, fmt.Errorf("leaf path of %d leaves the tree (run Validate for details)", v)
			}
			if seen[u] != 0 {
				if int(seen[u]) != h+1 {
					return nil, fmt.Errorf("leaf depths differ at graph node %d", v)
				}
				break
			}
			seen[u] = int32(h + 1)
			p := t.Parent[u]
			if (p == -1) != (h == depth) {
				return nil, fmt.Errorf("leaf depths differ at graph node %d", v)
			}
			if p == -1 {
				break
			}
			if v == 0 {
				w[h] = t.EdgeWeight[u]
			} else if t.EdgeWeight[u] != w[h] {
				return nil, fmt.Errorf("not level-uniform: height-%d edges weigh %v and %v", h, w[h], t.EdgeWeight[u])
			}
			u = p
		}
	}
	return w, nil
}

// BuildTree assembles the FRT tree from LE lists (Lemma 7.2). lists[v] must
// be the complete LE list of node v w.r.t. a distance function on which the
// construction is to be performed (the distances of H in the main pipeline),
// keyed by node ID; beta is the random scale β ∈ [1, 2). A list that is not
// an LE list under order — its distances do not strictly decrease with
// rank — is rejected.
//
// For each level i with radius r_i = β·2^i, node v's level-i center is
// v_i = min{w | dist(v,w) ≤ r_i} — readable directly off the LE list, since
// LE entries by increasing distance have strictly decreasing ranks. The
// level range [imin, imax] is chosen so that r_imin is below the smallest
// non-zero LE distance (leaf clusters are singletons) and r_imax reaches
// every node's final LE entry (a single root, centered at the rank-0 node).
func BuildTree(lists []semiring.DistMap, order *Order, beta float64) (*Tree, error) {
	if len(lists) != len(order.Rank) {
		return nil, fmt.Errorf("frt: %d LE lists for an order on %d nodes", len(lists), len(order.Rank))
	}
	k := order.keys()
	return buildTree(semiring.Rekeyed(lists, k.toRank), k, beta)
}

// buildTree is BuildTree on rank-keyed lists, the form the package's own
// fixpoints produce. An LE list in rank order has strictly decreasing
// distances, so it is already sorted by decreasing distance: v's level-i
// center is its first entry within r_i, and the list needs no sort.
func buildTree(lists []semiring.DistMap, k rankKeys, beta float64) (*Tree, error) {
	n := len(lists)
	if n == 0 {
		return nil, fmt.Errorf("frt: no LE lists")
	}
	if beta < 1 || beta >= 2 {
		return nil, fmt.Errorf("frt: beta %v outside [1,2)", beta)
	}
	// Validate every list, copy it into one contiguous (center, distance)
	// array with its keys mapped to node IDs, and reduce the distance range,
	// all in parallel: min and max are order-free, so the result is
	// identical at any parallel width. The copy is for the level sweep
	// below, which reads every list once per level — a fixpoint's lists lie
	// scattered over the heap. Validation failures record the lowest
	// offending node so the error matches the serial scan's.
	offs := make([]int, n+1)
	for v, l := range lists {
		offs[v+1] = offs[v] + l.Len()
	}
	centers := make([]graph.Node, offs[n])
	dists := make([]float64, offs[n])
	type rangeAcc struct {
		dmin, dmax float64
		badEmpty   int // lowest node with an empty list, or n
		badSelf    int // lowest node whose list lacks self@0, or n
		badOrder   int // lowest node whose list is not an LE list, or n
	}
	acc := par.Reduce(n,
		rangeAcc{dmin: semiring.Inf, badEmpty: n, badSelf: n, badOrder: n},
		func(v int) rangeAcc {
			r := rangeAcc{dmin: semiring.Inf, badEmpty: n, badSelf: n, badOrder: n}
			l := lists[v]
			last := l.Len() - 1
			if last < 0 {
				r.badEmpty = v
				return r
			}
			if l.Node(last) != k.toRank[v] || l.Dist(last) != 0 {
				r.badSelf = v
				return r
			}
			for j := 0; j < last; j++ {
				if !(l.Dist(j) > l.Dist(j+1)) {
					r.badOrder = v
					return r
				}
			}
			for j := 0; j <= last; j++ {
				centers[offs[v]+j] = k.toNode[l.Node(j)]
				dists[offs[v]+j] = l.Dist(j)
			}
			if last > 0 {
				r.dmin = l.Dist(last - 1)
			}
			r.dmax = l.Dist(0)
			return r
		},
		func(a, b rangeAcc) rangeAcc {
			if b.dmin < a.dmin {
				a.dmin = b.dmin
			}
			if b.dmax > a.dmax {
				a.dmax = b.dmax
			}
			if b.badEmpty < a.badEmpty {
				a.badEmpty = b.badEmpty
			}
			if b.badSelf < a.badSelf {
				a.badSelf = b.badSelf
			}
			if b.badOrder < a.badOrder {
				a.badOrder = b.badOrder
			}
			return a
		})
	if acc.badEmpty < n && acc.badEmpty <= acc.badSelf {
		return nil, fmt.Errorf("frt: empty LE list at node %d", acc.badEmpty)
	}
	if acc.badSelf < n {
		return nil, fmt.Errorf("frt: LE list of %d lacks self at distance 0", acc.badSelf)
	}
	if acc.badOrder < n {
		return nil, fmt.Errorf("frt: list of %d is not an LE list under the order", acc.badOrder)
	}
	dmin, dmax := acc.dmin, acc.dmax
	if semiring.IsInf(dmin) {
		dmin = 1 // single-node graph: any scale works
	}
	if dmax <= 0 {
		dmax = dmin
	}
	// r_i = beta * 2^i. Choose imin with r_imin < dmin and imax with
	// r_imax ≥ dmax.
	imin := int(math.Floor(math.Log2(dmin / beta)))
	for beta*math.Pow(2, float64(imin)) >= dmin {
		imin--
	}
	imax := int(math.Ceil(math.Log2(dmax / beta)))
	for beta*math.Pow(2, float64(imax)) < dmax {
		imax++
	}

	// v's level-i center is its first (lowest-rank) LE entry with distance
	// ≤ r_i. The sweep below visits levels top-down with strictly shrinking
	// radii, so each node keeps a cursor into its list that only ever moves
	// right: total center work per node is O(len + levels) instead of
	// O(len·levels), and the per-level cursor advance is embarrassingly
	// parallel. The last entry is self at distance 0 ≤ r, so the cursor
	// never overruns.
	cursor := append([]int(nil), offs[:n]...)
	advance := func(i int) {
		r := beta * math.Pow(2, float64(i))
		par.ForEach(n, func(v int) {
			j, last := cursor[v], offs[v+1]-1
			for j < last && dists[j] > r {
				j++
			}
			cursor[v] = j
		})
	}
	centerAt := func(v int) graph.Node { return centers[cursor[v]] }

	tree := &Tree{Beta: beta, Leaf: make([]int32, n)}
	addNode := func(parent int32, c graph.Node, level int, w float64) int32 {
		id := int32(len(tree.Parent))
		tree.Parent = append(tree.Parent, parent)
		tree.EdgeWeight = append(tree.EdgeWeight, w)
		tree.Center = append(tree.Center, c)
		tree.Level = append(tree.Level, int32(level))
		return id
	}

	// Root: all nodes share the center at level imax (the rank-0 node).
	// Every cursor starts at the list's head and advances to r_imax.
	advance(imax)
	rootCenter := centerAt(0)
	agree := par.Reduce(n, true,
		func(v int) bool { return centerAt(v) == rootCenter },
		func(a, b bool) bool { return a && b })
	if !agree {
		return nil, fmt.Errorf("frt: no common root at level %d", imax)
	}
	root := addNode(-1, rootCenter, imax, 0)

	// Sweep levels top-down, splitting each cluster by its members' centers.
	// Cluster ids are assigned by the serial v-order loop, so the tree is
	// byte-identical at any parallel width.
	cur := make([]int32, n)
	for v := range cur {
		cur[v] = root
	}
	type key struct {
		parent int32
		center graph.Node
	}
	for i := imax - 1; i >= imin; i-- {
		advance(i)
		ids := make(map[key]int32)
		w := 2 * beta * math.Pow(2, float64(i)) // doubled weight; see Tree doc
		for v := 0; v < n; v++ {
			c := key{parent: cur[v], center: centerAt(v)}
			id, ok := ids[c]
			if !ok {
				id = addNode(c.parent, c.center, i, w)
				ids[c] = id
			}
			cur[v] = id
		}
	}
	for v := 0; v < n; v++ {
		tree.Leaf[v] = cur[v]
		if tree.Center[cur[v]] != graph.Node(v) {
			return nil, fmt.Errorf("frt: leaf cluster of %d centered at %d — imin not below minimum distance", v, tree.Center[cur[v]])
		}
	}
	return tree, nil
}

// RandomBeta draws β ∈ [1, 2) from the FRT distribution (§7.1 step 1):
// density 1/(β ln 2), realised as β = 2^U with U uniform in [0, 1). This is
// the scale distribution the O(log n) expected-stretch analysis of [19]
// assumes.
func RandomBeta(rng *par.RNG) float64 {
	return math.Pow(2, rng.Float64())
}
