package frt

import (
	"reflect"
	"strings"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// bigSyntheticTree builds a valid 3-level FRT-shaped tree on n leaves:
// root → groups → leaves, with leaf v in group v%groups (or v/width when
// byDivision). Level weights are uniform (leafW up, groupW up), matching
// the BuildTree convention that OracleIndex requires.
func bigSyntheticTree(n, groups int, byDivision bool, leafW, groupW float64) *Tree {
	nn := 1 + groups + n
	tr := &Tree{
		Parent:     make([]int32, nn),
		EdgeWeight: make([]float64, nn),
		Center:     make([]graph.Node, nn),
		Level:      make([]int32, nn),
		Leaf:       make([]int32, n),
		Beta:       1.5,
	}
	tr.Parent[0] = -1
	tr.Level[0] = 2
	for gi := 0; gi < groups; gi++ {
		tr.Parent[1+gi] = 0
		tr.EdgeWeight[1+gi] = groupW
		tr.Level[1+gi] = 1
	}
	for v := 0; v < n; v++ {
		g := v % groups
		if byDivision {
			g = v / ((n + groups - 1) / groups)
		}
		u := 1 + groups + v
		tr.Parent[u] = int32(1 + g)
		tr.EdgeWeight[u] = leafW
		tr.Level[u] = 0
		tr.Center[u] = graph.Node(v)
		tr.Leaf[v] = int32(u)
	}
	return tr
}

// deepSyntheticTree builds a valid 4-level FRT-shaped tree on n leaves:
// root → groups → mids → leaves. Leaves 2i and 2i+1 share a mid for
// i < pairs, every other leaf has a mid of its own, and mid c hangs below
// group c%groups; level weights are uniform (1, 3, 9 bottom-up). With
// n − pairs > 65536 both height 0 and height 1 need 32-bit lanes.
func deepSyntheticTree(n, pairs, groups int) *Tree {
	mids := n - pairs
	nn := 1 + groups + mids + n
	tr := &Tree{
		Parent:     make([]int32, nn),
		EdgeWeight: make([]float64, nn),
		Center:     make([]graph.Node, nn),
		Level:      make([]int32, nn),
		Leaf:       make([]int32, n),
		Beta:       1.5,
	}
	tr.Parent[0] = -1
	tr.Level[0] = 3
	for gi := 0; gi < groups; gi++ {
		tr.Parent[1+gi], tr.EdgeWeight[1+gi], tr.Level[1+gi] = 0, 9, 2
	}
	for c := 0; c < mids; c++ {
		m := 1 + groups + c
		tr.Parent[m], tr.EdgeWeight[m], tr.Level[m] = int32(1+c%groups), 3, 1
	}
	for v := 0; v < n; v++ {
		c := v - pairs
		if v < 2*pairs {
			c = v / 2
		}
		u := 1 + groups + mids + v
		tr.Parent[u], tr.EdgeWeight[u], tr.Level[u] = int32(1+groups+c), 1, 0
		tr.Center[u] = graph.Node(v)
		tr.Leaf[v] = int32(u)
	}
	return tr
}

// TestOracleIndexSplitLanes drives the packed rows past the 16-bit lane
// capacity: with n > 65536 leaves the height-0 (and, in deepSyntheticTree,
// height-1) cluster ids need 32-bit lanes, so the index must select a
// nonzero split. The build must be
// bitwise identical at par.MaxProcs 1 and 2 (packTree renumbers word
// columns in parallel), and Min, Median and PerTreeBatch must equal the
// tree walk on pairs that meet in either lane width.
func TestOracleIndexSplitLanes(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	n := 1<<16 + 512
	a := bigSyntheticTree(n, 300, false, 1, 4)
	b := bigSyntheticTree(n, 17, true, 2, 8)
	deep := deepSyntheticTree(n, 511, 40)
	pairs := []Pair{
		{0, 1}, {0, 300}, {1, 301}, {5, 5 + 300*7}, // same/different groups in a
		{2, 3}, {1021, 1022}, {1022, 1023}, // same/different mids in deep
		{0, graph.Node(n - 1)}, {graph.Node(n / 2), graph.Node(n/2 + 1)},
		{17, 17}, {graph.Node(n - 2), graph.Node(n - 1)},
	}
	prng := par.NewRNG(3)
	for i := 0; i < 200; i++ {
		pairs = append(pairs, Pair{U: graph.Node(prng.Intn(n)), V: graph.Node(prng.Intn(n))})
	}
	for _, c := range []struct {
		trees []*Tree
		split int
	}{
		{[]*Tree{a, b}, 1},       // odd split: the second 32-bit lane is padding
		{[]*Tree{a, deep, b}, 2}, // mixed depths: a and b are padded to deep's
	} {
		for i, tr := range c.trees {
			if err := tr.Validate(); err != nil {
				t.Fatalf("tree %d: %v", i, err)
			}
		}
		var ref *OracleIndex
		for _, procs := range []int{1, 2} {
			par.MaxProcs = procs
			idx, err := NewOracleIndex(c.trees)
			if err != nil {
				t.Fatal(err)
			}
			if idx.split != c.split {
				t.Fatalf("split = %d, want %d", idx.split, c.split)
			}
			if ref == nil {
				ref = idx
			} else if !reflect.DeepEqual(idx.packed, ref.packed) || !reflect.DeepEqual(idx.levels, ref.levels) {
				t.Fatalf("split %d, procs=%d: packed rows or level weights differ from procs=1", c.split, procs)
			}
			checkAgainstWalk(t, idx, c.trees, pairs)
		}
	}
}

// TestOracleIndexBackfillsNonUniformPrefix covers a level-uniform tree
// followed by one that is not: the index must not be built from the uniform
// prefix alone, the error must name the later tree, and Ensemble.Min and
// Median must still answer both trees through the walk.
func TestOracleIndexBackfillsNonUniformPrefix(t *testing.T) {
	uniform := &Tree{
		Parent:     []int32{-1, 0, 0, 1, 2},
		EdgeWeight: []float64{0, 5, 5, 2, 2},
		Center:     []graph.Node{0, 0, 1, 0, 1},
		Level:      []int32{2, 1, 1, 0, 0},
		Leaf:       []int32{3, 4},
		Beta:       1.5,
	}
	skewed := &Tree{
		Parent:     []int32{-1, 0, 0, 1, 2},
		EdgeWeight: []float64{0, 5, 7, 2, 3},
		Center:     []graph.Node{0, 0, 1, 0, 1},
		Level:      []int32{2, 1, 1, 0, 0},
		Leaf:       []int32{3, 4},
		Beta:       1.5,
	}
	trees := []*Tree{uniform, skewed}
	for _, tr := range trees {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := NewOracleIndex(trees)
	if idx != nil || err == nil || !strings.Contains(err.Error(), "tree 1") ||
		!strings.Contains(err.Error(), "level-uniform") {
		t.Fatalf("NewOracleIndex = %v, %v; want an error naming tree 1 as not level-uniform", idx, err)
	}
	ens := &Ensemble{Trees: trees}
	want := min(uniform.Dist(0, 1), skewed.Dist(0, 1))
	if got := ens.Min(0, 1); got != want {
		t.Fatalf("Min(0,1)=%v, walk %v (tree 0's weights lost?)", got, want)
	}
	if got, want := ens.Median(0, 1), medianWalkDirect(trees, 0, 1); got != want {
		t.Fatalf("Median(0,1)=%v, walk %v", got, want)
	}
}

// checkAgainstWalk asserts that MinBatch, PerTreeBatch and Median equal the
// tree walk bitwise on every pair.
func checkAgainstWalk(t *testing.T, idx *OracleIndex, trees []*Tree, pairs []Pair) {
	t.Helper()
	k := len(trees)
	mins := idx.MinBatch(pairs, nil)
	per, err := idx.PerTreeBatch(pairs, 0, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		want := trees[0].Dist(p.U, p.V)
		for ti, tr := range trees {
			d := tr.Dist(p.U, p.V)
			if got := per[i*k+ti]; got != d {
				t.Fatalf("split %d: PerTreeBatch(%d,%d) tree %d = %v, walk %v", idx.split, p.U, p.V, ti, got, d)
			}
			if d < want {
				want = d
			}
		}
		if mins[i] != want {
			t.Fatalf("split %d: Min(%d,%d)=%v, walk %v", idx.split, p.U, p.V, mins[i], want)
		}
		if med, wmed := idx.Median(p.U, p.V), medianWalkDirect(trees, p.U, p.V); med != wmed {
			t.Fatalf("split %d: Median(%d,%d)=%v, walk %v", idx.split, p.U, p.V, med, wmed)
		}
	}
}
