package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"parmbf/internal/apps/kmedian"
	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/hopset"
	"parmbf/internal/par"
	"parmbf/internal/semiring"
	"parmbf/internal/simgraph"
)

// pipeline is the replayed server state after cold start.
type pipeline struct {
	g      *graph.Graph
	trees  []*frt.Tree
	ens    *frt.Ensemble
	idx    *frt.OracleIndex
	orders []*frt.Order // direct pipeline only
	betas  []float64
	// readDur and buildDur are the graph read and the build from graph to
	// index.
	readDur, buildDur time.Duration
}

// replay rebuilds the server's pipeline in-process from the same file and
// seed, calling each layer's public functions in the order parmbfd does,
// checks that every recorded answer is reproduced bitwise, and fills the
// per-layer metrics from the spans.
func (d *driver) replay(m map[string]float64) error {
	d.checkAll()
	t := newTracer()
	mismatch := func(what string, err error) {
		d.failed.Add(1)
		d.mismatches++
		logf("replay differs from the server (%s): %v", what, err)
	}

	var p *pipeline
	var err error
	atProcs(2, func() { p, err = d.build(t, t.start("build[2 cores]", -1), m) })
	if err != nil {
		return err
	}
	setupPath := p.readDur + p.buildDur

	// The first answer, which ends cold start.
	s := t.start("frt.min_batch(probe)", -1)
	got := p.idx.MinBatch(d.in.quality.pairs, nil)
	setupPath += s.end(nil)
	if err := sameDists(d.quality, got); err != nil {
		mismatch("probe", err)
	}
	m["trace.setup_s"] = d.setups[0].Seconds()
	m["trace.setup_residual_s"] = (d.setups[0] - setupPath).Seconds()

	d.replayBatches(t, p, m, mismatch)
	switch d.w.Heavy {
	case "update":
		if err := d.replayUpdates(t, p, m, mismatch); err != nil {
			return err
		}
	case "kmedian":
		d.replayKMedian(t, p, m, mismatch)
	}
	m["loadgen.lag_p99_ms"] = quantileMs(d.mixedLag, 0.99)
	m["parmbfd.capacity_pairs_per_s"] = d.readThroughput()
	var heavy []time.Duration
	for _, h := range d.heavy {
		if h.err == nil {
			heavy = append(heavy, h.service)
		}
	}
	m["parmbfd.heavy_p50_ms"] = quantileMs(heavy, 0.50)

	// The same build on one core must give the same trees, only slower.
	var p1 *pipeline
	atProcs(1, func() { p1, err = d.build(t, t.start("build[1 core]", -1), nil) })
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(p1.trees, p.trees) {
		mismatch("1-core build", fmt.Errorf("trees differ from the 2-core build"))
	}
	m["par.build_ms_1core"] = ms(p1.buildDur)
	m["par.build_ms_2core"] = ms(p.buildDur)
	m["par.build_speedup"] = p1.buildDur.Seconds() / p.buildDur.Seconds()

	path := filepath.Join(d.o.work, fmt.Sprintf("trace-%s-seed%d.json", d.w.Name, d.o.seed))
	if err := t.write(path); err != nil {
		return err
	}
	logf("trace written to %s", path)
	return nil
}

// atProcs runs f with GOMAXPROCS and par.MaxProcs set to n.
func atProcs(n int, f func()) {
	procs, parProcs := runtime.GOMAXPROCS(n), par.MaxProcs
	par.MaxProcs = n
	defer func() {
		runtime.GOMAXPROCS(procs)
		par.MaxProcs = parProcs
	}()
	f()
}

// build replays cold start up to the oracle index under parent; m == nil
// records spans but no metrics.
func (d *driver) build(t *tracer, parent *open, m map[string]float64) (*pipeline, error) {
	if m == nil {
		m = map[string]float64{}
	}
	defer parent.end(nil)
	p := &pipeline{}
	s := t.start("graph.read", parent.id)
	g, err := readGraph(d.in.graphPath)
	if err != nil {
		return nil, err
	}
	p.g = g
	p.readDur = s.end(nil)
	m["graph.read_ms"] = ms(p.readDur)

	b := t.start("build", parent.id)
	rng := par.NewRNG(d.in.serverSeed)
	var lists [][]semiring.DistMap
	if d.w.Dynamic {
		lists, err = d.buildDirect(t, b.id, p, rng, m)
	} else {
		lists, err = d.buildOracle(t, b.id, p, rng, m)
	}
	if err != nil {
		return nil, err
	}
	s = t.start("frt.index_build", b.id)
	p.ens = &frt.Ensemble{Trees: p.trees}
	if p.idx, err = p.ens.Index(); err != nil {
		return nil, err
	}
	m["frt.index_build_ms"] = ms(s.end(nil))
	p.buildDur = b.end(nil)

	entries, maxLen, nodes := 0, 0, 0
	for i, l := range lists {
		for _, x := range l {
			entries += x.Len()
		}
		maxLen = max(maxLen, frt.MaxLELength(l))
		nodes += p.trees[i].NumNodes()
	}
	m["frt.le_entries"] = float64(entries)
	m["frt.le_max_len"] = float64(maxLen)
	m["frt.tree_nodes"] = float64(nodes)
	return p, nil
}

// buildOracle replays frt.NewEmbedder and SampleEnsemble: hop set, H, then
// one oracle fixpoint and tree per sample, concurrently.
func (d *driver) buildOracle(t *tracer, parent int, p *pipeline, rng *par.RNG, m map[string]float64) ([][]semiring.DistMap, error) {
	hopTr := &par.Tracker{}
	s := t.start("hopset.build", parent)
	hs := hopset.DefaultSkeleton(p.g, rng, hopTr)
	m["hopset.build_ms"] = ms(s.end(hopTr))
	m["hopset.added_edges"] = float64(hs.Added)
	m["hopset.work"] = float64(hopTr.Work())
	m["hopset.depth"] = float64(hopTr.Depth())

	s = t.start("simgraph.build", parent)
	h := simgraph.Build(hs, 0, rng)
	m["simgraph.build_ms"] = ms(s.end(nil))
	m["simgraph.lambda"] = float64(h.Lambda)

	k, n := d.w.K, p.g.N()
	rngs := rng.SplitN(k)
	lists := make([][]semiring.DistMap, k)
	p.trees = make([]*frt.Tree, k)
	trackers := make([]*par.Tracker, k)
	iters := make([]int, k)
	fix := make([]time.Duration, k)
	assemble := make([]time.Duration, k)
	errs := make([]error, k)
	phase := t.start("simgraph.trees", parent)
	par.ForEach(k, func(i int) {
		order := frt.NewOrder(n, rngs[i])
		beta := frt.RandomBeta(rngs[i])
		trackers[i] = &par.Tracker{}
		oracle := simgraph.NewOracle(h, trackers[i])
		oracle.FilterInPlace = order.FilterInPlace()
		s := t.start("simgraph.fixpoint", phase.id)
		lists[i], iters[i] = oracle.RunToFixpoint(frt.InitialStates(n), order.Filter(), simgraph.MaxIters(n))
		fix[i] = s.end(trackers[i])
		s = t.start("frt.build_tree", phase.id)
		p.trees[i], errs[i] = frt.BuildTree(lists[i], order, beta)
		assemble[i] = s.end(nil)
	})
	phase.end(nil)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var work, depth int64
	var sumFix, maxFix, sumTree time.Duration
	maxIters := 0
	for i := range trackers {
		work += trackers[i].Work()
		depth = max(depth, trackers[i].Depth())
		sumFix += fix[i]
		maxFix = max(maxFix, fix[i])
		sumTree += assemble[i]
		maxIters = max(maxIters, iters[i])
	}
	m["simgraph.fixpoint_ms_sum"] = ms(sumFix)
	m["simgraph.fixpoint_ms_max"] = ms(maxFix)
	m["simgraph.iterations"] = float64(maxIters)
	m["simgraph.work"] = float64(work)
	m["simgraph.depth"] = float64(depth)
	m["simgraph.alloc_mb"] = float64(t.allocOf(phase)) / (1 << 20)
	m["frt.build_tree_ms"] = ms(sumTree)
	return lists, nil
}

// buildDirect replays frt.NewDynamicEnsemble: per-tree orders and betas,
// one batched LE-list fixpoint on G, then tree assembly.
func (d *driver) buildDirect(t *tracer, parent int, p *pipeline, rng *par.RNG, m map[string]float64) ([][]semiring.DistMap, error) {
	k, n := d.w.K, p.g.N()
	p.orders = make([]*frt.Order, k)
	p.betas = make([]float64, k)
	for i, r := range rng.SplitN(k) {
		p.orders[i] = frt.NewOrder(n, r)
		p.betas[i] = frt.RandomBeta(r)
	}
	leTr := &par.Tracker{}
	s := t.start("frt.le_lists", parent)
	lists, _ := frt.LEListsOnGraphBatch(p.g, p.orders, leTr)
	m["frt.le_lists_ms"] = ms(s.end(leTr))
	m["frt.le_work"] = float64(leTr.Work())
	m["frt.le_depth"] = float64(leTr.Depth())
	s = t.start("frt.build_tree", parent)
	p.trees = make([]*frt.Tree, k)
	for i := range p.trees {
		var err error
		if p.trees[i], err = frt.BuildTree(lists[i], p.orders[i], p.betas[i]); err != nil {
			return nil, err
		}
	}
	m["frt.build_tree_ms"] = ms(s.end(nil))
	return lists, nil
}

// answer is the index call the server makes for one /batch read.
func answer(idx *frt.OracleIndex, req readReq) []float64 {
	if req.stat == "median" {
		return idx.MedianBatch(req.pairs, nil)
	}
	return idx.MinBatch(req.pairs, nil)
}

// replayBatches re-answers every recorded /batch read in-process, timing
// the index calls, and sets the index and HTTP-overhead metrics.
func (d *driver) replayBatches(t *tracer, p *pipeline, m map[string]float64, mismatch func(string, error)) {
	for b, data := range d.readFirst {
		if data != nil {
			if err := sameDists(data, answer(p.idx, d.in.reads[b])); err != nil {
				mismatch(fmt.Sprintf("read body %d", b), err)
			}
		}
	}
	if d.w.Heavy != "update" {
		for i, r := range d.mixed {
			if r.ok {
				if err := sameDists(r.data, answer(p.idx, d.in.reads[r.body])); err != nil {
					mismatch(fmt.Sprintf("mixed read %d", i), err)
				}
			}
		}
	}
	// Time the same calls in-process: every read body, a few passes.
	const passes = 5
	var mins, medians, all []float64
	parent := t.start("frt.read_batches", -1)
	for pass := 0; pass < passes; pass++ {
		for _, req := range d.in.reads {
			s := t.start("frt."+req.stat+"_batch", parent.id)
			answer(p.idx, req)
			us := float64(s.end(nil)) / float64(time.Microsecond)
			all = append(all, us)
			if req.stat == "median" {
				medians = append(medians, us)
			} else {
				mins = append(mins, us)
			}
		}
	}
	parent.end(nil)
	m["frt.min_batch_us"] = median(mins)
	m["frt.median_batch_us"] = median(medians)
	m["parmbfd.read_overhead_us"] = 1000*quantileMs(d.readLat, 0.5) - median(all)
}

// replayKMedian re-solves every answered /kmedian with its seed.
func (d *driver) replayKMedian(t *tracer, p *pipeline, m map[string]float64, mismatch func(string, error)) {
	var times, candidates []float64
	parent := t.start("kmedian.solves", -1)
	for i, h := range d.heavy {
		if h.err != nil {
			continue
		}
		s := t.start("kmedian.solve", parent.id)
		res, err := kmedian.Solve(p.g, kmedianK, kmedian.Options{RNG: par.NewRNG(d.in.heavy[i].seed), Ensemble: p.ens})
		times = append(times, ms(s.end(nil)))
		if err == nil {
			candidates = append(candidates, float64(len(res.Candidates)))
			err = sameKMedian(h.data, res)
		}
		if err != nil {
			mismatch(fmt.Sprintf("kmedian %d", i), err)
		}
	}
	parent.end(nil)
	m["kmedian.solve_ms"] = median(times)
	m["kmedian.candidates"] = mean(candidates)
}

// replayUpdates applies the served edit sequence to a DynamicEnsemble and
// checks each update's answer, every mixed read against the versions it
// may have seen, and the post-edit batch against the last version.
func (d *driver) replayUpdates(t *tracer, p *pipeline, m map[string]float64, mismatch func(string, error)) error {
	s := t.start("frt.dynamic_state", -1)
	dyn, err := frt.NewDynamicEnsembleWith(p.g, p.orders, p.betas, nil)
	s.end(nil)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(dyn.Trees(), p.trees) {
		mismatch("dynamic ensemble", fmt.Errorf("trees differ from the replayed build"))
	}
	var applied []int // heavy indices the server applied, in order
	for i, h := range d.heavy {
		if h.err == nil {
			applied = append(applied, i)
		}
	}
	matched := make([]bool, len(d.mixed))
	var updMs, reMs, cone, affected, wait []float64
	idx := p.idx
	parent := t.start("frt.updates", -1)
	for v := 0; ; v++ {
		for i, r := range d.mixed {
			if r.ok && !matched[i] && r.lo <= int64(v) && int64(v) <= r.hi {
				matched[i] = sameDists(r.data, answer(idx, d.in.reads[r.body])) == nil
			}
		}
		if v == len(applied) {
			break
		}
		h := d.heavy[applied[v]]
		s := t.start("frt.update", parent.id)
		st, err := dyn.ApplyEdits(d.in.heavy[applied[v]].edits)
		updMs = append(updMs, ms(s.end(nil)))
		if err != nil {
			return err
		}
		s = t.start("frt.reindex", parent.id)
		if idx, err = frt.NewOracleIndex(dyn.Trees()); err != nil {
			return err
		}
		reMs = append(reMs, ms(s.end(nil)))
		cone = append(cone, float64(st.RecomputedNodes))
		affected = append(affected, float64(st.AffectedTrees))
		var ua updateAnswer
		if err := json.Unmarshal(h.data, &ua); err != nil {
			return err
		}
		want := updateAnswer{Version: int64(v + 1), Edges: dyn.Graph().M(), AffectedTrees: st.AffectedTrees,
			RecomputedNodes: st.RecomputedNodes, DecreaseOnly: st.DecreaseOnly, ElapsedMs: ua.ElapsedMs}
		if ua != want {
			mismatch(fmt.Sprintf("update %d", v), fmt.Errorf("server %+v, replay %+v", ua, want))
		}
		wait = append(wait, ms(h.service)-float64(ua.ElapsedMs))
	}
	parent.end(nil)
	for i, r := range d.mixed {
		if r.ok && !matched[i] {
			mismatch(fmt.Sprintf("mixed read %d", i),
				fmt.Errorf("matches no serving version in [%d, %d]", r.lo, r.hi))
		}
	}
	if d.final != nil {
		if err := sameDists(d.final, idx.MinBatch(d.in.quality.pairs, nil)); err != nil {
			mismatch("post-edit quality batch", err)
		}
	}
	m["frt.update_ms"] = median(updMs)
	m["frt.reindex_ms"] = median(reMs)
	m["frt.update_cone_nodes"] = mean(cone)
	m["frt.update_affected_trees"] = mean(affected)
	m["parmbfd.update_wait_ms"] = median(wait)
	return nil
}

// sameDists reports whether a /batch answer equals want bitwise.
func sameDists(data []byte, want []float64) error {
	var a batchAnswer
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	if len(a.Dists) != len(want) {
		return fmt.Errorf("%d distances, replay has %d", len(a.Dists), len(want))
	}
	for i := range want {
		if math.Float64bits(a.Dists[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("pair %d: server %v, replay %v", i, a.Dists[i], want[i])
		}
	}
	return nil
}

// sameKMedian reports whether a /kmedian answer equals res bitwise.
func sameKMedian(data []byte, res *kmedian.Result) error {
	var a kmedianAnswer
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	centers := make([]int64, len(res.Centers))
	for i, c := range res.Centers {
		centers[i] = int64(c)
	}
	if !reflect.DeepEqual(a.Centers, centers) || math.Float64bits(a.Cost) != math.Float64bits(res.Cost) ||
		a.Candidates != len(res.Candidates) {
		return fmt.Errorf("server %+v, replay centers %v cost %v candidates %d", a, centers, res.Cost, len(res.Candidates))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
