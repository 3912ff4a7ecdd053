package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"parmbf/internal/apps/kmedian"
	"parmbf/internal/frt"
	"parmbf/internal/graph"
)

// domSlack absorbs float rounding between a tree distance and Dijkstra's
// sum of the same weights; a real dominance violation is far larger.
const domSlack = 1e-9

type batchAnswer struct {
	Dists []float64 `json:"dists"`
}

type kmedianAnswer struct {
	Centers    []int64 `json:"centers"`
	Cost       float64 `json:"cost"`
	Candidates int     `json:"candidates"`
}

type updateAnswer struct {
	Version         int64 `json:"version"`
	Edges           int   `json:"edges"`
	AffectedTrees   int   `json:"affectedTrees"`
	RecomputedNodes int   `json:"recomputedNodes"`
	DecreaseOnly    bool  `json:"decreaseOnly"`
	ElapsedMs       int64 `json:"elapsedMs"`
}

// checkAll judges every recorded answer of an untraced run, counting each
// wrong one as a failed operation, and returns the mean stretch of the
// quality pairs.
func (d *driver) checkAll() float64 {
	in := d.in
	fail := func(what string, err error) {
		d.failed.Add(1)
		logf("wrong answer (%s): %v", what, err)
	}
	var sum float64
	var count int
	if ratios, err := d.checkRead(in.quality, d.quality, in.g, in.exact); err != nil {
		fail("quality request", err)
	} else {
		for _, r := range ratios {
			sum += r
		}
		count = len(ratios)
	}
	for b, data := range d.first {
		if data == nil {
			continue
		}
		if _, err := d.checkRead(in.reads[b], data, in.g, in.exact); err != nil {
			// Every later answer identical to this one is wrong too.
			d.failed.Add(int64(d.firstCount[b]))
			fail(fmt.Sprintf("read body %d", b), err)
		}
	}
	for i, r := range d.mixed {
		if !r.ok || r.matched {
			continue
		}
		if d.w.Heavy != "update" {
			fail(fmt.Sprintf("mixed read %d", i), errors.New("differs from an earlier answer to the same request on a server whose trees never change"))
			continue
		}
		// Updates only raise edge weights, so every version's distances
		// dominate the original graph's.
		if _, err := d.checkRead(in.reads[r.body], r.data, in.g, in.exact); err != nil {
			fail(fmt.Sprintf("mixed read %d", i), err)
		}
	}
	edits := d.checkHeavy(fail)
	if d.w.Heavy == "update" && d.final != nil {
		g2, err := applyAll(in.g, edits)
		if err != nil {
			fail("post-edit graph", err)
		} else if _, err := d.checkRead(in.quality, d.final, g2, exactFromPool(g2, in.pool)); err != nil {
			fail("post-edit quality batch", err)
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// checkHeavy judges the heavy answers and returns the edits the server
// applied, in order.
func (d *driver) checkHeavy(fail func(string, error)) [][]graph.Edit {
	var applied [][]graph.Edit
	for i, h := range d.heavy {
		if h.err != nil {
			continue // already counted failed when sent
		}
		var err error
		switch d.w.Heavy {
		case "kmedian":
			_, err = checkKMedian(d.in.g, h.data)
		case "update":
			var ua updateAnswer
			if err = json.Unmarshal(h.data, &ua); err == nil {
				applied = append(applied, d.in.heavy[i].edits)
				if ua.Version != int64(len(applied)) || ua.Edges != d.in.g.M() {
					err = fmt.Errorf("version %d, edges %d; want %d, %d", ua.Version, ua.Edges, len(applied), d.in.g.M())
				}
			}
		}
		if err != nil {
			fail(fmt.Sprintf("%s %d", d.w.Heavy, i), err)
		}
	}
	return applied
}

// checkRead judges one read answer against exact distances of g and returns
// the estimate-over-exact ratio of every pair with distinct endpoints.
func (d *driver) checkRead(req readReq, data []byte, g *graph.Graph, exact [][]float64) ([]float64, error) {
	if data == nil {
		return nil, errors.New("no answer")
	}
	ratios := make([]float64, 0, len(req.pairs))
	dominates := func(i int, p frt.Pair, got float64) error {
		if p.U == p.V {
			if got != 0 {
				return fmt.Errorf("pair %d (%d, %d): distance %v to itself", i, p.U, p.V, got)
			}
			return nil
		}
		ex := d.in.dist(exact, p)
		if math.IsNaN(got) || got < ex*(1-domSlack) {
			return fmt.Errorf("pair %d (%d, %d): %v below the exact distance %v", i, p.U, p.V, got, ex)
		}
		ratios = append(ratios, got/ex)
		return nil
	}
	var a batchAnswer
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, err
	}
	if len(a.Dists) != len(req.pairs) {
		return nil, fmt.Errorf("%d distances for %d pairs", len(a.Dists), len(req.pairs))
	}
	for i, p := range req.pairs {
		if err := dominates(i, p, a.Dists[i]); err != nil {
			return nil, err
		}
	}
	return ratios, nil
}

// checkKMedian checks a /kmedian answer: k distinct centers of g whose
// reported cost is exactly kmedian.Cost.
func checkKMedian(g *graph.Graph, data []byte) (*kmedianAnswer, error) {
	var a kmedianAnswer
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, err
	}
	if len(a.Centers) != kmedianK {
		return nil, fmt.Errorf("%d centers, want %d", len(a.Centers), kmedianK)
	}
	seen := map[int64]bool{}
	centers := make([]graph.Node, len(a.Centers))
	for i, c := range a.Centers {
		if c < 0 || c >= int64(g.N()) || seen[c] {
			return nil, fmt.Errorf("center %d out of range or repeated", c)
		}
		seen[c] = true
		centers[i] = graph.Node(c)
	}
	if cost := kmedian.Cost(g, centers); cost != a.Cost {
		return nil, fmt.Errorf("reported cost %v, exact cost %v", a.Cost, cost)
	}
	return &a, nil
}

// applyAll applies the edit batches in the order the server applied them.
func applyAll(g *graph.Graph, batches [][]graph.Edit) (*graph.Graph, error) {
	for _, b := range batches {
		g2, _, err := graph.ApplyEdits(g, b)
		if err != nil {
			return nil, err
		}
		g = g2
	}
	return g, nil
}
