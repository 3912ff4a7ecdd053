package mbf

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"parmbf/internal/graph"
	"parmbf/internal/par"
)

// sweep is one run of the frontier driver: B lane vectors advanced
// together over one graph, lane b under lanes[b]'s filter. The frontier is
// the list of nodes whose state changed in the last step, each carrying a
// bit-packed mask (w = ⌈B/64⌉ words) of the lanes that changed there.
type sweep[S, M any] struct {
	r     *Runner[S, M]
	k     kernel[S, M]
	lanes []BatchLane[M]
	xs    [][]M
	w     int

	front []graph.Node
	masks []uint64 // len(front)·w: the frontier's lane masks
	live  []uint64 // w words: OR of masks, the lanes still changing

	// Step scratch, reused across steps. Candidate i of a step is node
	// cand[i], with pos[cand[i]] = i+1 (pos is 0 for every other node, and
	// for every node between steps). It recomputes the lanes pushed onto
	// it, candLanes[i·w:], stages them in staged[slot[i]:], one slot per
	// lane (slot is nil for a single lane: candidate i stages in slot i),
	// and flags the lanes whose state changed in changed[i·w:].
	pos       []int32
	cand      []graph.Node
	candLanes []uint64
	slot      []int32
	staged    []M
	changed   []uint64
	prevFront []graph.Node
	prevMasks []uint64
	work      atomic.Int64
}

func (r *Runner[S, M]) newSweep(xs [][]M, lanes []BatchLane[M]) *sweep[S, M] {
	if len(lanes) != len(xs) {
		panic("mbf: lane count does not match batch size")
	}
	n := r.Graph.N()
	for _, x := range xs {
		if len(x) != n {
			panic("mbf: state vector length does not match graph size")
		}
	}
	w := (len(lanes) + 63) / 64
	return &sweep[S, M]{
		r: r, k: r.kernel(), lanes: lanes, xs: xs, w: w,
		live: make([]uint64, w),
		pos:  make([]int32, n),
	}
}

// seedFresh filters every lane's initial states in place and seeds the
// frontier, in ascending node order, with each lane's non-⊥ states — or
// with every node for a lane whose filter does not map ⊥ to ⊥.
func (s *sweep[S, M]) seedFresh() {
	mod := s.r.Module
	zero := mod.Zero()
	all := make([]bool, len(s.lanes))
	for b, l := range s.lanes {
		all[b] = l.Filter != nil && !mod.Equal(l.Filter(zero), zero)
	}
	m := make([]uint64, s.w)
	for v := 0; v < s.r.Graph.N(); v++ {
		clear(m)
		for b, l := range s.lanes {
			x := s.xs[b]
			x[v] = l.filter(x[v])
			if all[b] || !mod.Equal(x[v], zero) {
				m[b/64] |= 1 << (b % 64)
			}
		}
		if !maskZero(m) {
			s.front = append(s.front, graph.Node(v))
			s.masks = append(s.masks, m...)
			orInto(s.live, m)
		}
	}
}

// seedNodes seeds the frontier with the given nodes in every lane,
// deduplicated in first-occurrence order.
func (s *sweep[S, M]) seedNodes(seeds []graph.Node) {
	all := make([]uint64, s.w)
	for b := range s.lanes {
		all[b/64] |= 1 << (b % 64)
	}
	for _, v := range seeds {
		s.cand, s.candLanes = push(s.cand, s.candLanes, s.pos, v, all)
	}
	for _, v := range s.cand {
		s.pos[v] = 0
	}
	if len(s.cand) > 0 {
		copy(s.live, all)
	}
	s.front, s.masks, s.cand, s.candLanes = s.cand, s.candLanes, nil, nil
}

// step performs one sparse iteration in place: it re-aggregates, for
// exactly the lanes that can change there, every frontier node and every
// node reading a frontier node's state, then writes the changed states back
// and makes their nodes the next frontier (in candidate discovery order).
// It is the only code that advances a frontier.
func (s *sweep[S, M]) step() {
	r, w, pos := s.r, s.w, s.pos
	// Candidates: push each frontier node's mask onto the node and onto
	// every node reading its state. Node v aggregates x over its out-arcs,
	// so a change at u feeds exactly u's in-neighbors (the transpose view;
	// the graph itself when symmetric).
	cand, candLanes := s.cand[:0], s.candLanes[:0]
	for i, u := range s.front {
		if w == 1 { // one mask word, the common case: no mask slicing
			m := s.masks[i]
			if p := pos[u]; p != 0 {
				candLanes[p-1] |= m
			} else {
				cand, candLanes = append(cand, u), append(candLanes, m)
				pos[u] = int32(len(cand))
			}
			for _, a := range r.Graph.InNeighbors(u) {
				if p := pos[a.To]; p != 0 {
					candLanes[p-1] |= m
				} else {
					cand, candLanes = append(cand, a.To), append(candLanes, m)
					pos[a.To] = int32(len(cand))
				}
			}
			continue
		}
		m := s.masks[i*w : (i+1)*w]
		cand, candLanes = push(cand, candLanes, pos, u, m)
		for _, a := range r.Graph.InNeighbors(u) {
			cand, candLanes = push(cand, candLanes, pos, a.To, m)
		}
	}
	// Hand every (candidate, lane) pair its staging slot.
	var slot []int32
	total := int32(len(cand))
	if len(s.lanes) > 1 {
		slot, total = s.slot[:0], 0
		for i := range cand {
			slot = append(slot, total)
			for _, word := range candLanes[i*w : (i+1)*w] {
				total += int32(bits.OnesCount64(word))
			}
		}
		s.slot = slot
	}
	s.staged = slices.Grow(s.staged[:0], int(total))
	staged := s.staged[:total]
	s.changed = slices.Grow(s.changed[:0], len(cand)*w)
	changed := s.changed[:len(cand)*w]
	s.work.Store(0)
	par.ForEachChunk(len(cand), func(start, end int) {
		st := r.getIter()
		var sum int64
		for i := start; i < end; i++ {
			v, k := cand[i], int32(i)
			if slot != nil {
				k = slot[i]
			}
			ch := changed[i*w : (i+1)*w]
			for j, word := range candLanes[i*w : (i+1)*w] {
				ch[j] = 0
				for ; word != 0; word &= word - 1 {
					b := j*64 + bits.TrailingZeros64(word)
					x := s.xs[b]
					out, wk := r.recompute(int(v), x, &s.lanes[b], st, &s.k)
					sum += wk
					if !r.Module.Equal(out, x[v]) {
						staged[k] = out
						ch[j] |= word & -word
					}
					k++
				}
			}
		}
		r.putIter(st)
		s.work.Add(sum)
	})
	r.charge(&s.work)
	// Write-back after the parallel read phase: no candidate may observe a
	// neighbor's new state mid-iteration.
	front, masks := s.prevFront[:0], s.prevMasks[:0]
	clear(s.live)
	var zero M
	for i, v := range cand {
		pos[v] = 0
		if ch := changed[i*w : (i+1)*w]; !maskZero(ch) {
			k := int32(i)
			if slot != nil {
				k = slot[i]
			}
			for j, word := range candLanes[i*w : (i+1)*w] {
				for ; word != 0; word &= word - 1 {
					if ch[j]&(word&-word) != 0 {
						s.xs[j*64+bits.TrailingZeros64(word)][v] = staged[k]
						staged[k] = zero // drop the reference before reuse
					}
					k++
				}
			}
			front = append(front, v)
			for j, word := range ch {
				masks = append(masks, word)
				s.live[j] |= word
			}
		}
	}
	s.prevFront, s.prevMasks = s.front, s.masks
	s.front, s.masks = front, masks
	s.cand, s.candLanes = cand, candLanes
}

// push ORs lane mask m onto node v's candidate mask, making v a candidate
// the first time it is touched this step.
func push(cand []graph.Node, candLanes []uint64, pos []int32, v graph.Node, m []uint64) ([]graph.Node, []uint64) {
	if p := int(pos[v]); p != 0 {
		orInto(candLanes[(p-1)*len(m):p*len(m)], m)
		return cand, candLanes
	}
	pos[v] = int32(len(cand) + 1)
	return append(cand, v), append(candLanes, m...)
}

func maskZero(m []uint64) bool {
	for _, w := range m {
		if w != 0 {
			return false
		}
	}
	return true
}

func orInto(dst, src []uint64) {
	for j := range dst {
		dst[j] |= src[j]
	}
}
