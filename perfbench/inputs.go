package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"parmbf/internal/frt"
	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// Input sizes. Every pair the benchmark sends has one endpoint in a pool of
// poolSize sources whose exact distances are precomputed, so every answer
// can be checked against Dijkstra without a per-pair search.
const (
	poolSize     = 256
	qualityPairs = 1024 // pairs of the stretch/quality check
	readBodies   = 256  // distinct read requests, sent round-robin
	kmedianK     = 8
	// heavyRequests is the number of pre-drawn heavy requests: more than
	// the mixed phase sends in a minute-long run.
	heavyRequests = 1024
	maxWeight     = 10 // RandomConnected weights are uniform in [1, maxWeight]
)

// readReq is one pre-encoded read request.
type readReq struct {
	body  []byte
	pairs []frt.Pair
	stat  string // "min" or "median"
}

// heavyReq is one pre-encoded heavy request: a /kmedian with its seed, or an
// /update with its edits.
type heavyReq struct {
	body  []byte
	seed  uint64       // kmedian
	edits []graph.Edit // update
}

// datasetSeed draws each workload's dataset: the graph, the server's
// -seed, and the heavy requests (update edges, k-median seeds). The run's
// --seed draws the traffic: the checked source pool and every read pair.
//
// Keeping the dataset fixed makes runs with different seeds do the same
// build and the same heavy work, so the spread between them is measurement
// noise and a regression bound can sit above it. Drawn per seed, one
// update's repair cost varies by 10× with the edge it hits, and the
// median of the few dozen updates a run can afford moved by about 25%
// from seed to seed.
const datasetSeed = 1

// inputs is everything a run sends.
type inputs struct {
	graphPath  string
	g          *graph.Graph // read back from graphPath, as the server reads it
	serverSeed uint64
	// pool[i] is a source with exact distances exact[i]; poolIdx maps a node
	// to its pool index or -1.
	pool    []graph.Node
	poolIdx []int32
	exact   [][]float64
	// quality holds qualityPairs pairs with distinct endpoints in one /batch
	// (stat=min). It is also the probe that ends each cold start.
	quality readReq
	reads   []readReq
	heavy   []heavyReq
}

// makeInputs draws w's dataset and the traffic of seed, and writes the
// edge-list file the server reads with -in.
func makeInputs(w workload, seed uint64, work string) (*inputs, error) {
	data, rng := par.NewRNG(datasetSeed), par.NewRNG(seed)
	gen := graph.RandomConnected(w.N, 4*w.N, maxWeight, data)
	in := &inputs{graphPath: filepath.Join(work, fmt.Sprintf("%s-seed%d.graph", w.Name, seed))}
	if err := writeGraph(in.graphPath, gen); err != nil {
		return nil, err
	}
	var err error
	if in.g, err = readGraph(in.graphPath); err != nil {
		return nil, err
	}
	in.serverSeed = data.Uint64()%(1<<31) + 1

	n := in.g.N()
	p := min(poolSize, n)
	in.pool = make([]graph.Node, p)
	in.poolIdx = make([]int32, n)
	for v := range in.poolIdx {
		in.poolIdx[v] = -1
	}
	for i, v := range rng.Perm(n)[:p] {
		in.pool[i] = graph.Node(v)
		in.poolIdx[v] = int32(i)
	}
	in.exact = exactFromPool(in.g, in.pool)

	pair := func(distinct bool) frt.Pair {
		u := in.pool[rng.Intn(p)]
		v := graph.Node(rng.Intn(n))
		for distinct && v == u {
			v = graph.Node(rng.Intn(n))
		}
		if rng.Bool() {
			u, v = v, u
		}
		return frt.Pair{U: u, V: v}
	}
	pairs := func(count int, distinct bool) []frt.Pair {
		ps := make([]frt.Pair, count)
		for i := range ps {
			ps[i] = pair(distinct)
		}
		return ps
	}
	in.quality = batchReq(pairs(qualityPairs, true), "min")
	for i := 0; i < readBodies; i++ {
		stat := "min"
		if i%4 == 3 { // about 3 in 4 reads ask for the Min estimate
			stat = "median"
		}
		in.reads = append(in.reads, batchReq(pairs(w.ReadPairs, false), stat))
	}

	heavy := heavyRequests
	switch w.Heavy {
	case "kmedian":
		for i := 0; i < heavy; i++ {
			s := data.Uint64()%(1<<31) + 1
			in.heavy = append(in.heavy, heavyReq{body: mustJSON(map[string]any{"k": kmedianK, "seed": s}), seed: s})
		}
	case "update":
		// Congestion: each update raises one random edge's weight 2–6×.
		// Every version of the graph is then at least as long as the
		// original, so a read answered from any version must still dominate
		// the original exact distance — the check that holds whichever
		// version a concurrent read saw. Every update takes the same
		// (non-monotone) repair path, so its latency has one mode.
		edges := in.g.Edges()
		for _, i := range data.Perm(len(edges))[:min(heavy, len(edges))] {
			e := edges[i]
			in.heavy = append(in.heavy, updateReq([]graph.Edit{
				{Op: graph.EditReweight, U: e.U, V: e.V, Weight: e.Weight * (2 + 4*data.Float64())},
			}))
		}
	}
	return in, nil
}

func batchReq(pairs []frt.Pair, stat string) readReq {
	return readReq{body: mustJSON(map[string]any{"pairs": wirePairs(pairs), "stat": stat}), pairs: pairs, stat: stat}
}

func updateReq(edits []graph.Edit) heavyReq {
	wire := make([]map[string]any, len(edits))
	for i, e := range edits {
		wire[i] = map[string]any{"op": "reweight", "u": e.U, "v": e.V, "weight": e.Weight}
	}
	return heavyReq{body: mustJSON(map[string]any{"edits": wire}), edits: edits}
}

func wirePairs(pairs []frt.Pair) [][2]int64 {
	out := make([][2]int64, len(pairs))
	for i, p := range pairs {
		out[i] = [2]int64{int64(p.U), int64(p.V)}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of numbers and strings are encoded
	}
	return b
}

func writeGraph(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.Write(f, g); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func readGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := graph.Read(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return g, nil
}

// exactFromPool runs Dijkstra from every pool source.
func exactFromPool(g *graph.Graph, pool []graph.Node) [][]float64 {
	exact := make([][]float64, len(pool))
	par.ForEach(len(pool), func(i int) { exact[i] = graph.Dijkstra(g, pool[i]).Dist })
	return exact
}

// dist returns the exact distance of p from the pool table; every pair the
// benchmark draws has an endpoint in the pool.
func (in *inputs) dist(exact [][]float64, p frt.Pair) float64 {
	if i := in.poolIdx[p.U]; i >= 0 {
		return exact[i][p.V]
	}
	return exact[in.poolIdx[p.V]][p.U]
}
