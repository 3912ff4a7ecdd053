package frt

import (
	"fmt"
	"sync"
	"testing"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// The oracle benchmark fixture is the acceptance workload of the query
// subsystem: an ensemble of K=16 trees on an n=4096 random graph, queried
// on a fixed batch of random pairs. Building it costs a few seconds, so all
// Oracle* benchmarks share one lazily built instance.
var oracleFix struct {
	once  sync.Once
	ens   *Ensemble
	idx   *OracleIndex
	pairs []Pair
	err   error
}

const oracleBenchPairs = 4096

func oracleFixture(b *testing.B) (*Ensemble, *OracleIndex, []Pair) {
	b.Helper()
	oracleFix.once.Do(func() {
		rng := par.NewRNG(1)
		g := graph.RandomConnected(4096, 16384, 8, rng)
		oracleFix.ens, oracleFix.err = SampleEnsemble(16, func() (*Embedding, error) {
			return SampleOnGraph(g, rng, nil)
		})
		if oracleFix.err != nil {
			return
		}
		oracleFix.idx, oracleFix.err = NewOracleIndex(oracleFix.ens.Trees)
		if oracleFix.err != nil {
			return
		}
		prng := par.NewRNG(2)
		oracleFix.pairs = make([]Pair, oracleBenchPairs)
		for i := range oracleFix.pairs {
			u := graph.Node(prng.Intn(g.N()))
			v := graph.Node(prng.Intn(g.N()))
			oracleFix.pairs[i] = Pair{U: u, V: v}
		}
	})
	if oracleFix.err != nil {
		b.Fatal(oracleFix.err)
	}
	return oracleFix.ens, oracleFix.idx, oracleFix.pairs
}

// BenchmarkOracleWalkMin4096 is the pre-index serving path: one lockstep
// parent walk per tree per pair (the old Ensemble.Min), over the fixed
// 4096-pair batch. ns/op is per batch.
func BenchmarkOracleWalkMin4096(b *testing.B) {
	ens, _, pairs := oracleFixture(b)
	out := make([]float64, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range pairs {
			out[j] = ens.minWalk(p.U, p.V)
		}
	}
	sinkFloats = out
}

// BenchmarkOracleIndexMinBatch4096 is the new serving path: the same batch
// through OracleIndex.MinBatch (packed-row merge scans and one level-weight
// table, parallelised by par.ForEach). The acceptance bar of the query
// subsystem is ≥ 10× over BenchmarkOracleWalkMin4096.
func BenchmarkOracleIndexMinBatch4096(b *testing.B) {
	_, idx, pairs := oracleFixture(b)
	out := make([]float64, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = idx.MinBatch(pairs, out)
	}
	sinkFloats = out
}

// splitFix is the split-layout counterpart of the oracle fixture: K=16
// synthetic three-level trees on n = 2^16+512 leaves, past the 16-bit lane
// capacity, so every row starts with a 32-bit-lane word (split > 0).
var splitFix struct {
	once  sync.Once
	idx   *OracleIndex
	pairs []Pair
	err   error
}

func splitFixture(b *testing.B) (*OracleIndex, []Pair) {
	b.Helper()
	splitFix.once.Do(func() {
		n := 1<<16 + 512
		trees := make([]*Tree, 16)
		for i := range trees {
			trees[i] = bigSyntheticTree(n, 64+37*i, i%2 == 1, float64(1+i%3), 8)
		}
		splitFix.idx, splitFix.err = NewOracleIndex(trees)
		if splitFix.err == nil && splitFix.idx.split == 0 {
			splitFix.err = fmt.Errorf("split layout not engaged")
		}
		prng := par.NewRNG(2)
		splitFix.pairs = make([]Pair, oracleBenchPairs)
		for i := range splitFix.pairs {
			splitFix.pairs[i] = Pair{U: graph.Node(prng.Intn(n)), V: graph.Node(prng.Intn(n))}
		}
	})
	if splitFix.err != nil {
		b.Fatal(splitFix.err)
	}
	return splitFix.idx, splitFix.pairs
}

// BenchmarkOracleIndexMinBatchSplit is MinBatch4096 on the split layout
// (n > 65536): the same scan, now also crossing the 32-bit-lane words.
func BenchmarkOracleIndexMinBatchSplit(b *testing.B) {
	idx, pairs := splitFixture(b)
	out := make([]float64, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = idx.MinBatch(pairs, out)
	}
	sinkFloats = out
}

// BenchmarkOracleIndexMedianBatch4096 measures the pooled-scratch median
// path on the same batch.
func BenchmarkOracleIndexMedianBatch4096(b *testing.B) {
	_, idx, pairs := oracleFixture(b)
	out := make([]float64, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = idx.MedianBatch(pairs, out)
	}
	sinkFloats = out
}

// BenchmarkOracleIndexBuild4096 measures the preprocessing cost the index
// amortises: O(n·depth) per tree, 16 trees.
func BenchmarkOracleIndexBuild4096(b *testing.B) {
	ens, _, _ := oracleFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := NewOracleIndex(ens.Trees)
		if err != nil {
			b.Fatal(err)
		}
		sinkIndex = idx
	}
}

var (
	sinkFloats []float64
	sinkIndex  *OracleIndex
)
