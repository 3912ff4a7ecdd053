package mbf

// Differential property tests of the batched frontier driver: on random
// graphs, RunToFixpointBatch must produce, lane for lane, exactly the states
// (per Module.Equal) and iteration counts of a solo Runner configured with
// that lane's filter — across parallel widths, for heterogeneous per-lane
// filters, for the B=1 degenerate batch, and for a lane whose filter does
// not preserve ⊥ (checked against the dense reference). Runs in the short
// and -race tiers: the driver shares pooled scratch between workers and
// stages its write-backs.

import (
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
)

// batchCase builds B heterogeneous source-detection lanes on g: lane b keeps
// the k_b = b+1 closest even sources within distance d_b.
func batchCase(g *graph.Graph, B int) ([][]semiring.DistMap, []BatchLane[semiring.DistMap], []*Runner[float64, semiring.DistMap]) {
	xs := make([][]semiring.DistMap, B)
	lanes := make([]BatchLane[semiring.DistMap], B)
	solos := make([]*Runner[float64, semiring.DistMap], B)
	for b := 0; b < B; b++ {
		mod := b + 2
		sources := func(v semiring.NodeID) bool { return int(v)%mod == 0 }
		d := semiring.Inf
		if b%2 == 1 {
			d = float64(5 + b)
		}
		filter := semiring.TopKFilter(b+1, d, sources)
		filterInPlace := semiring.TopKFilterInPlace(b+1, d, sources)
		if b%3 == 2 {
			filterInPlace = nil // exercise the pure-filter lane path too
		}
		x0 := make([]semiring.DistMap, g.N())
		for v := range x0 {
			if sources(semiring.NodeID(v)) {
				x0[v] = semiring.SingletonDist(graph.Node(v), 0)
			}
		}
		xs[b] = x0
		lanes[b] = BatchLane[semiring.DistMap]{Filter: filter, FilterInPlace: filterInPlace}
		solos[b] = &Runner[float64, semiring.DistMap]{
			Graph:         g,
			Module:        semiring.DistMapModule{},
			Filter:        filter,
			FilterInPlace: filterInPlace,
			Weight:        MinPlusWeight,
		}
	}
	return xs, lanes, solos
}

// batchRunner is the shared runner the batched sweep runs on (no global
// filter: the lanes carry their own).
func batchRunner(g *graph.Graph) *Runner[float64, semiring.DistMap] {
	return &Runner[float64, semiring.DistMap]{
		Graph:  g,
		Module: semiring.DistMapModule{},
		Weight: MinPlusWeight,
	}
}

// TestBatchStepMatchesPerLaneIterate pins one batched step: from mid-run
// states, a batch capped at one iteration must equal, lane for lane, one
// dense solo Iterate under that lane's filter.
func TestBatchStepMatchesPerLaneIterate(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	for _, seed := range []uint64{1, 2, 3} {
		g := randomGraph(seed, 40, 120)
		xs, lanes, solos := batchCase(g, 5)
		// Advance each lane a few steps so the batch sees mid-run states.
		for b := range xs {
			for v := range xs[b] {
				xs[b][v] = lanes[b].filter(xs[b][v])
			}
			xs[b] = solos[b].Iterate(xs[b])
		}
		for _, procs := range maxProcsVariants() {
			par.MaxProcs = procs
			r := batchRunner(g)
			got, _ := r.RunToFixpointBatch(xs, lanes, 1)
			for b := range xs {
				want := solos[b].Iterate(xs[b])
				for v := range want {
					if !r.Module.Equal(got[b][v], want[v]) {
						t.Fatalf("seed=%d procs=%d lane=%d node=%d: batch %v ≠ solo %v",
							seed, procs, b, v, got[b][v], want[v])
					}
				}
			}
		}
	}
}

func TestRunToFixpointBatchMatchesSolo(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	for _, seed := range []uint64{4, 5} {
		g := randomGraph(seed, 36, 100)
		// 70 lanes take two mask words per node.
		for _, B := range []int{5, 70} {
			for _, procs := range maxProcsVariants() {
				par.MaxProcs = procs
				xs, lanes, solos := batchCase(g, B)
				r := batchRunner(g)
				gotStates, gotIters := r.RunToFixpointBatch(xs, lanes, g.N())
				for b := range xs {
					wantStates, wantIters := solos[b].RunToFixpoint(xs[b], g.N())
					if gotIters[b] != wantIters {
						t.Fatalf("seed=%d B=%d procs=%d lane=%d: batch ran %d iterations, solo %d",
							seed, B, procs, b, gotIters[b], wantIters)
					}
					for v := range wantStates {
						if !r.Module.Equal(gotStates[b][v], wantStates[v]) {
							t.Fatalf("seed=%d B=%d procs=%d lane=%d node=%d: batch %v ≠ solo %v",
								seed, B, procs, b, v, gotStates[b][v], wantStates[v])
						}
					}
				}
			}
		}
	}
}

// TestRunToFixpointBatchSingleLane pins the degenerate B=1 batch — the shape
// SourceDetection routes through — against the solo engine, including the
// maxIter cap and the all-⊥ zero-iteration case.
func TestRunToFixpointBatchSingleLane(t *testing.T) {
	g := randomGraph(6, 30, 80)
	lane := BatchLane[semiring.DistMap]{
		Filter:        semiring.TopKFilter(3, semiring.Inf, nil),
		FilterInPlace: semiring.TopKFilterInPlace(3, semiring.Inf, nil),
	}
	solo := &Runner[float64, semiring.DistMap]{
		Graph:         g,
		Module:        semiring.DistMapModule{},
		Filter:        lane.Filter,
		FilterInPlace: lane.FilterInPlace,
		Weight:        MinPlusWeight,
	}
	x0 := make([]semiring.DistMap, g.N())
	for v := range x0 {
		x0[v] = semiring.SingletonDist(graph.Node(v), 0)
	}
	for _, maxIter := range []int{0, 1, 2, g.N()} {
		r := batchRunner(g)
		got, gotIters := r.RunToFixpointBatch([][]semiring.DistMap{x0}, []BatchLane[semiring.DistMap]{lane}, maxIter)
		want, wantIters := solo.RunToFixpoint(x0, maxIter)
		if gotIters[0] != wantIters {
			t.Fatalf("maxIter=%d: batch ran %d iterations, solo %d", maxIter, gotIters[0], wantIters)
		}
		for v := range want {
			if !r.Module.Equal(got[0][v], want[v]) {
				t.Fatalf("maxIter=%d node=%d: batch %v ≠ solo %v", maxIter, v, got[0][v], want[v])
			}
		}
	}
	// All-⊥ lane: fixpoint immediately, 0 iterations, exactly like solo.
	bottom := make([]semiring.DistMap, g.N())
	r := batchRunner(g)
	got, iters := r.RunToFixpointBatch([][]semiring.DistMap{bottom}, []BatchLane[semiring.DistMap]{lane}, g.N())
	if iters[0] != 0 {
		t.Fatalf("all-⊥ lane ran %d iterations, want 0", iters[0])
	}
	for v := range got[0] {
		if got[0][v].Len() != 0 {
			t.Fatalf("all-⊥ lane produced state at node %d: %v", v, got[0][v])
		}
	}
}

// TestRunToFixpointBatchZeroUnstableLane: a batch holding one lane whose
// filter resurrects ⊥ states (seeded with every node) must still match solo
// runs lane for lane.
func TestRunToFixpointBatchZeroUnstableLane(t *testing.T) {
	g := randomGraph(7, 24, 60)
	resurrect := func(x semiring.DistMap) semiring.DistMap {
		if x.Len() == 0 {
			return semiring.SingletonDist(0, 1)
		}
		return x
	}
	lanes := []BatchLane[semiring.DistMap]{
		{Filter: semiring.TopKFilter(2, semiring.Inf, nil), FilterInPlace: semiring.TopKFilterInPlace(2, semiring.Inf, nil)},
		{Filter: resurrect},
	}
	x0 := make([]semiring.DistMap, g.N())
	for v := range x0 {
		x0[v] = semiring.SingletonDist(graph.Node(v), 0)
	}
	xs := [][]semiring.DistMap{x0, append([]semiring.DistMap(nil), x0...)}
	r := batchRunner(g)
	got, gotIters := r.RunToFixpointBatch(xs, lanes, 8)
	for b := range lanes {
		solo := &Runner[float64, semiring.DistMap]{
			Graph:  g,
			Module: semiring.DistMapModule{},
			Filter: lanes[b].Filter, FilterInPlace: lanes[b].FilterInPlace,
			Weight: MinPlusWeight,
		}
		want, wantIters := solo.RunToFixpoint(xs[b], 8)
		if gotIters[b] != wantIters {
			t.Fatalf("lane=%d: batch ran %d iterations, solo %d", b, gotIters[b], wantIters)
		}
		for v := range want {
			if !r.Module.Equal(got[b][v], want[v]) {
				t.Fatalf("lane=%d node=%d: batch %v ≠ solo %v", b, v, got[b][v], want[v])
			}
		}
	}
}

// TestBatchZeroUnstableLaneMatchesDense pins the all-node seed inside a
// batch against the dense reference: one lane whose filter resurrects ⊥
// states, among normal lanes, must leave every lane equal to the dense loop,
// states and iteration counts both.
func TestBatchZeroUnstableLaneMatchesDense(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	g := randomGraph(7, 24, 60)
	resurrect := func(x semiring.DistMap) semiring.DistMap {
		if x.Len() == 0 {
			return semiring.SingletonDist(0, 1)
		}
		return x
	}
	lanes := []BatchLane[semiring.DistMap]{
		{Filter: semiring.TopKFilter(2, semiring.Inf, nil), FilterInPlace: semiring.TopKFilterInPlace(2, semiring.Inf, nil)},
		{Filter: resurrect},
		{Filter: semiring.TopKFilter(3, 6, nil)},
		{},
	}
	x0 := make([]semiring.DistMap, g.N())
	for v := range x0 {
		if v%3 == 0 {
			x0[v] = semiring.SingletonDist(graph.Node(v), 0)
		}
	}
	xs := make([][]semiring.DistMap, len(lanes))
	for b := range xs {
		xs[b] = append([]semiring.DistMap(nil), x0...)
	}
	for _, procs := range maxProcsVariants() {
		par.MaxProcs = procs
		r := batchRunner(g)
		got, gotIters := r.RunToFixpointBatch(xs, lanes, g.N())
		for b := range lanes {
			solo := &Runner[float64, semiring.DistMap]{
				Graph:  g,
				Module: semiring.DistMapModule{},
				Filter: lanes[b].Filter, FilterInPlace: lanes[b].FilterInPlace,
				Weight: MinPlusWeight,
			}
			want, wantIters := solo.RunToFixpointDense(xs[b], g.N())
			if gotIters[b] != wantIters {
				t.Fatalf("procs=%d lane=%d: batch ran %d iterations, dense %d", procs, b, gotIters[b], wantIters)
			}
			for v := range want {
				if !r.Module.Equal(got[b][v], want[v]) {
					t.Fatalf("procs=%d lane=%d node=%d: batch %v ≠ dense %v", procs, b, v, got[b][v], want[v])
				}
			}
		}
	}
}

// TestSourceDetectionBatchMatchesPerSet pins the zoo entry point: a batch of
// source sets equals the per-set SourceDetection runs.
func TestSourceDetectionBatchMatchesPerSet(t *testing.T) {
	defer func(p int) { par.MaxProcs = p }(par.MaxProcs)
	g := randomGraph(8, 32, 90)
	sets := []func(graph.Node) bool{
		func(v graph.Node) bool { return v%2 == 0 },
		func(v graph.Node) bool { return v%3 == 0 },
		func(v graph.Node) bool { return v < 5 },
		nil, // all nodes
	}
	const h, d, k = 16, 12.0, 3
	for _, procs := range maxProcsVariants() {
		par.MaxProcs = procs
		got := SourceDetectionBatch(g, sets, h, d, k, nil)
		mod := semiring.DistMapModule{}
		for b, sources := range sets {
			want := SourceDetection(g, sources, h, d, k, nil)
			for v := range want {
				if !mod.Equal(got[b][v], want[v]) {
					t.Fatalf("procs=%d set=%d node=%d: batch %v ≠ solo %v", procs, b, v, got[b][v], want[v])
				}
			}
		}
	}
}
