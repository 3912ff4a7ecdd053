package semiring

import (
	"math/rand"
	"testing"
)

// TestKeyedSingletonStates pins the keyed bulk carve: states[v] = {key[v]: 0}
// with full-capacity sub-slices, and a nil key equal to SingletonStates.
func TestKeyedSingletonStates(t *testing.T) {
	const n = 64
	key := make([]NodeID, n)
	for v, k := range rand.New(rand.NewSource(1)).Perm(n) {
		key[v] = NodeID(k)
	}
	mod := DistMapModule{}
	states := KeyedSingletonStates(n, key)
	plain := KeyedSingletonStates(n, nil)
	for v := 0; v < n; v++ {
		if !mod.Equal(states[v], SingletonDist(key[v], 0)) {
			t.Fatalf("states[%d] = %v, want {%d: 0}", v, states[v], key[v])
		}
		if cap(states[v].ids) != 1 {
			t.Fatalf("states[%d] id cap = %d, want 1", v, cap(states[v].ids))
		}
		if !mod.Equal(plain[v], SingletonDist(NodeID(v), 0)) {
			t.Fatalf("nil key: states[%d] = %v", v, plain[v])
		}
	}
}

// randomMap draws a map over keys [0, n) with density p and distances in
// [0, maxD) — small maxD forces distance ties.
func randomMap(rng *rand.Rand, n int, p float64, maxD int) DistMap {
	x := DistMap{}
	for k := 0; k < n; k++ {
		if rng.Float64() < p {
			x = x.Append(NodeID(k), float64(rng.Intn(maxD)))
		}
	}
	return x
}

// TestRekeyedMatchesNormalize checks RekeyInPlace and Rekeyed against
// relabel-then-Normalize on maps long enough to take the heapsort path, and
// that Rekeyed never writes to its inputs.
func TestRekeyedMatchesNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 200
	key := make([]NodeID, n)
	for v, k := range rng.Perm(n) {
		key[v] = NodeID(k)
	}
	mod := DistMapModule{}
	var xs []DistMap
	for trial := 0; trial < 50; trial++ {
		xs = append(xs, randomMap(rng, n, []float64{0, 0.02, 0.1, 0.6}[trial%4], 1000))
	}
	before := make([]DistMap, len(xs))
	for i, x := range xs {
		before[i] = x.Clone()
	}
	got := Rekeyed(xs, key)
	for i, x := range xs {
		if !mod.Equal(x, before[i]) {
			t.Fatalf("map %d: Rekeyed modified its input", i)
		}
		relabelled := DistMap{}
		for _, e := range x.Entries() {
			relabelled = relabelled.Append(key[e.Node], e.Dist)
		}
		want := Normalize(relabelled)
		if !mod.Equal(got[i], want) {
			t.Fatalf("map %d: Rekeyed = %v, want %v", i, got[i], want)
		}
		if inPlace := x.Clone().RekeyInPlace(key); !mod.Equal(inPlace, want) {
			t.Fatalf("map %d: RekeyInPlace = %v, want %v", i, inPlace, want)
		}
	}
}

// TestPrefixMinimaInPlace checks the scan against its definition: an entry
// survives iff every earlier entry is strictly farther.
func TestPrefixMinimaInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mod := DistMapModule{}
	for trial := 0; trial < 200; trial++ {
		x := randomMap(rng, 40, 0.5, 6)
		want := DistMap{}
		for i, e := range x.Entries() {
			kept := true
			for _, f := range x.Entries()[:i] {
				if f.Dist <= e.Dist {
					kept = false
					break
				}
			}
			if kept {
				want = want.Append(e.Node, e.Dist)
			}
		}
		if got := x.Clone().PrefixMinimaInPlace(); !mod.Equal(got, want) {
			t.Fatalf("PrefixMinimaInPlace(%v) = %v, want %v", x, got, want)
		}
	}
}
