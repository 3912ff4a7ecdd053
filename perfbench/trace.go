package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"parmbf/internal/par"
)

// span is one traced call into a layer. Alloc is the process-wide heap
// allocation during the span, so spans that ran concurrently share theirs;
// Work and Depth come from the par.Tracker the call was handed, if any.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for a root
	Name    string  `json:"name"`
	StartUs float64 `json:"startUs"`
	EndUs   float64 `json:"endUs"`
	Alloc   uint64  `json:"allocBytes"`
	Work    int64   `json:"work,omitempty"`
	Depth   int64   `json:"depth,omitempty"`
}

// tracer keeps the spans of one traced run in memory until write.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	t     *tracer
	id    int
	start time.Time
	alloc uint64
}

// start opens a span named name under parent (-1: a root).
func (t *tracer) start(name string, parent int) *open {
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name})
	t.mu.Unlock()
	return &open{t: t, id: id, start: time.Now(), alloc: heapAllocs()}
}

// end closes the span, charging tr's work and depth (tr may be nil), and
// returns its duration.
func (o *open) end(tr *par.Tracker) time.Duration {
	now := time.Now()
	alloc := heapAllocs() - o.alloc
	o.t.mu.Lock()
	s := &o.t.spans[o.id]
	s.StartUs = float64(o.start.Sub(o.t.t0)) / float64(time.Microsecond)
	s.EndUs = float64(now.Sub(o.t.t0)) / float64(time.Microsecond)
	s.Alloc = alloc
	if tr != nil {
		s.Work, s.Depth = tr.Work(), tr.Depth()
	}
	o.t.mu.Unlock()
	return now.Sub(o.start)
}

// allocOf returns a closed span's allocation.
func (t *tracer) allocOf(o *open) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[o.id].Alloc
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// heapAllocs is the cumulative number of bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
