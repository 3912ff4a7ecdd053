package frt

import (
	"bytes"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/mbf"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
	"parmbf/internal/simgraph"
)

// sortFilterInPlace is the node-keyed LE filter as it was before rank keys:
// sort by (distance, rank), sweep keeping each entry that beats every
// earlier rank, sort the survivors back by node ID. It is the reference for
// Order.FilterInPlace.
func sortFilterInPlace(o *Order) semiring.Filter[semiring.DistMap] {
	rank := o.Rank
	return func(x semiring.DistMap) semiring.DistMap {
		if x.Len() == 0 {
			return semiring.DistMap{}
		}
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

// randomTiedMap draws a map over keys [0, n) whose distances come from a
// range of maxD values, so distance ties are frequent.
func randomTiedMap(rng *par.RNG, n int, density float64, maxD int) semiring.DistMap {
	x := semiring.DistMap{}
	for k := 0; k < n; k++ {
		if rng.Float64() < density {
			x = x.Append(semiring.NodeID(k), float64(rng.Intn(maxD)))
		}
	}
	return x
}

// TestRankFilterMatchesDefinition checks the rank-keyed scan against a
// brute-force Definition 7.3 dominance check (keys are ranks: an entry is
// dropped iff some lower key is at most as far), with forced ties.
func TestRankFilterMatchesDefinition(t *testing.T) {
	rng := par.NewRNG(41)
	mod := semiring.DistMapModule{}
	for trial := 0; trial < 300; trial++ {
		x := randomTiedMap(rng, 48, []float64{0.1, 0.5, 0.9}[trial%3], 1+trial%5)
		want := semiring.DistMap{}
		for _, e := range x.Entries() {
			dominated := false
			for _, f := range x.Entries() {
				if f.Node < e.Node && f.Dist <= e.Dist {
					dominated = true
					break
				}
			}
			if !dominated {
				want = want.Append(e.Node, e.Dist)
			}
		}
		if got := rankFilter(x); !mod.Equal(got, want) {
			t.Fatalf("rankFilter(%v) = %v, want %v", x, got, want)
		}
	}
}

// TestNodeFilterMatchesSortReference pins the node-keyed Order.FilterInPlace
// (rekey, scan, rekey back) to the (distance, rank)-sort reference, on maps
// short and long enough to take both sort paths of the rekey.
func TestNodeFilterMatchesSortReference(t *testing.T) {
	rng := par.NewRNG(42)
	mod := semiring.DistMapModule{}
	for trial := 0; trial < 300; trial++ {
		o := NewOrder(64, rng)
		x := randomTiedMap(rng, 64, []float64{0.05, 0.2, 0.8}[trial%3], 1+trial%7)
		want := sortFilterInPlace(o)(x.Clone())
		if got := o.FilterInPlace()(x.Clone()); !mod.Equal(got, want) {
			t.Fatalf("FilterInPlace(%v) = %v, want %v", x, got, want)
		}
		if got := o.Filter()(x); !mod.Equal(got, want) {
			t.Fatalf("Filter(%v) = %v, want %v", x, got, want)
		}
	}
}

// forEachProcs runs f at par.MaxProcs 1 and 2.
func forEachProcs(t *testing.T, f func(t *testing.T)) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	for _, procs := range []int{1, 2} {
		par.MaxProcs = procs
		f(t)
	}
}

func treeBytes(t *testing.T, tr *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTree(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEmbedderMatchesNodeKeyedPath pins the rank-keyed Embedder draw to the
// node-keyed public path — oracle.RunToFixpoint on InitialStates with
// Order.Filter, then BuildTree — bitwise: same lists, iteration count,
// work/depth, and tree.
func TestEmbedderMatchesNodeKeyedPath(t *testing.T) {
	forEachProcs(t, func(t *testing.T) {
		g := graph.RandomConnected(96, 320, 8, par.NewRNG(51))
		e, err := NewEmbedder(g, Options{RNG: par.NewRNG(52)})
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		mod := semiring.DistMapModule{}
		for seed := uint64(1); seed <= 3; seed++ {
			var gotTr, wantTr par.Tracker
			emb, err := e.sampleWith(par.NewRNG(seed), &gotTr)
			if err != nil {
				t.Fatal(err)
			}
			rng := par.NewRNG(seed)
			order := NewOrder(n, rng)
			beta := RandomBeta(rng)
			oracle := simgraph.NewOracle(e.H(), &wantTr)
			oracle.FilterInPlace = order.FilterInPlace()
			lists, iters := oracle.RunToFixpoint(InitialStates(n), order.Filter(), simgraph.MaxIters(n))
			tree, err := BuildTree(lists, order, beta)
			if err != nil {
				t.Fatal(err)
			}
			if emb.Iterations != iters {
				t.Fatalf("seed %d: %d iterations, node-keyed %d", seed, emb.Iterations, iters)
			}
			if gotTr.Work() != wantTr.Work() || gotTr.Depth() != wantTr.Depth() {
				t.Fatalf("seed %d: work/depth %d/%d, node-keyed %d/%d",
					seed, gotTr.Work(), gotTr.Depth(), wantTr.Work(), wantTr.Depth())
			}
			for v := range lists {
				if !mod.Equal(emb.LELists[v], lists[v]) {
					t.Fatalf("seed %d node %d: %v, node-keyed %v", seed, v, emb.LELists[v], lists[v])
				}
			}
			if !bytes.Equal(treeBytes(t, emb.Tree), treeBytes(t, tree)) {
				t.Fatalf("seed %d: tree differs from the node-keyed path's", seed)
			}
		}
	})
}

// skeletonFirstOrder ranks the nodes of skel first, as the CONGEST skeleton
// algorithm does, with each part shuffled.
func skeletonFirstOrder(n int, skel []graph.Node, rng *par.RNG) *Order {
	first := make([]bool, n)
	for _, s := range skel {
		first[s] = true
	}
	rank := make([]uint64, n)
	perm := rng.Perm(n)
	next := uint64(0)
	for _, pass := range []bool{true, false} {
		for _, v := range perm {
			if first[v] == pass {
				rank[v] = next
				next++
			}
		}
	}
	return &Order{Rank: rank}
}

// TestLEListsOnGraphBatchMatchesNodeKeyedRunners pins every rank-keyed lane
// of LEListsOnGraphBatch to a solo node-keyed runner under that lane's
// Order.Filter, including a skeleton-first order.
func TestLEListsOnGraphBatchMatchesNodeKeyedRunners(t *testing.T) {
	forEachProcs(t, func(t *testing.T) {
		rng := par.NewRNG(61)
		g := graph.RandomConnected(80, 200, 9, rng)
		n := g.N()
		orders := []*Order{
			NewOrder(n, rng),
			NewOrder(n, rng),
			skeletonFirstOrder(n, []graph.Node{3, 17, 40, 41, 79}, rng),
			NewOrder(n, rng),
		}
		got, gotIters := LEListsOnGraphBatch(g, orders, nil)
		mod := semiring.DistMapModule{}
		for b, o := range orders {
			runner := &mbf.Runner[float64, semiring.DistMap]{
				Graph:         g,
				Module:        semiring.DistMapModule{},
				Filter:        o.Filter(),
				FilterInPlace: o.FilterInPlace(),
				Weight:        mbf.MinPlusWeight,
				Size:          func(m semiring.DistMap) int { return m.Len() + 1 },
			}
			want, wantIters := runner.RunToFixpoint(InitialStates(n), n)
			if gotIters[b] != wantIters {
				t.Fatalf("lane %d: %d iterations, node-keyed %d", b, gotIters[b], wantIters)
			}
			for v := range want {
				if !mod.Equal(got[b][v], want[v]) {
					t.Fatalf("lane %d node %d: %v, node-keyed %v", b, v, got[b][v], want[v])
				}
			}
		}
	})
}

// TestDynamicEnsembleWeightIncreaseRepairs drives the invalidate-and-
// recompute path with weight increases only, which can never disconnect the
// graph, so every batch must succeed: a cone reset that broke the rank
// keying would surface as a BuildTree error here instead of being mistaken
// for a rejected batch.
func TestDynamicEnsembleWeightIncreaseRepairs(t *testing.T) {
	forEachProcs(t, func(t *testing.T) {
		rng := par.NewRNG(71)
		d, err := NewDynamicEnsemble(graph.RandomConnected(64, 200, 8, rng), 3, par.NewRNG(72), nil)
		if err != nil {
			t.Fatal(err)
		}
		recomputed := 0
		for round := 0; round < 6; round++ {
			edges := d.Graph().Edges()
			e := edges[rng.Intn(len(edges))]
			stats, err := d.ApplyEdits([]graph.Edit{{Op: graph.EditReweight, U: e.U, V: e.V, Weight: e.Weight * 4}})
			if err != nil {
				t.Fatalf("round %d: weight increase rejected: %v", round, err)
			}
			recomputed += stats.RecomputedNodes
			assertDynamicMatchesRebuild(t, d)
		}
		if recomputed == 0 {
			t.Fatal("no batch invalidated a cone; the test exercises nothing")
		}
	})
}

// TestBuildTreeRejectsNonLEList: a list whose distances do not strictly
// decrease with rank is not an LE list under the order, and BuildTree must
// say so rather than read centers off it.
func TestBuildTreeRejectsNonLEList(t *testing.T) {
	g := graph.RandomConnected(40, 90, 8, par.NewRNG(81))
	o := NewOrder(g.N(), par.NewRNG(82))
	lists, _ := LEListsOnGraph(g, o, nil)
	if _, err := BuildTree(lists, o, 1.5); err != nil {
		t.Fatal(err)
	}
	// Give node v a dominated entry: the rank-0 node's distance plus one,
	// on a node of higher rank than the rank-0 node that v's list lacks.
	v := graph.Node(7)
	root := o.MinNode()
	var extra graph.Node = -1
	for w := 0; w < g.N(); w++ {
		if graph.Node(w) != root && lists[v].Get(graph.Node(w)) == semiring.Inf {
			extra = graph.Node(w)
			break
		}
	}
	bad := semiring.MergeMin(lists[v], semiring.SingletonDist(extra, lists[v].Get(root)+1))
	corrupt := append([]semiring.DistMap(nil), lists...)
	corrupt[v] = bad
	if _, err := BuildTree(corrupt, o, 1.5); err == nil {
		t.Fatalf("BuildTree accepted the non-LE list %v", bad)
	}
}
