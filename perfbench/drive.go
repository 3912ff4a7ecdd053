package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// startTimeout bounds one cold start; the slowest committed workload
// (embed-oracle) takes about 15 s on a 2-core box.
const startTimeout = 150 * time.Second

// driver runs the phases of one run against the server and records what
// came back; checks.go judges the answers and replay.go replays them.
type driver struct {
	w   workload
	o   options
	in  *inputs
	srv *server

	attempted, failed atomic.Int64
	// mismatches counts the answers a traced replay did not reproduce
	// bitwise (each also counts as failed).
	mismatches int
	// sent counts the operations the server answered 200, by /stats counter.
	sentQueries, sentBatches, sentUpdates atomic.Int64

	setups []time.Duration
	// peakRSS is each server's VmHWM when it stopped: after its cold start,
	// or after the whole run for the last one. Where the peak falls depends
	// on garbage-collector timing, so the metric is their median.
	peakRSS []float64
	// quality is the first cold start's answer to in.quality, the probe
	// that ended it.
	quality []byte

	// Capacity phase (closed loop): capEnds holds, for each read answered
	// 200, when it was answered, from the start of the phase.
	capEnds []time.Duration
	capWall time.Duration
	// Read phase (open loop): the latency of each read answered 200.
	readLat []time.Duration
	// first[b] is the first answer to read body b; firstCount[b] is the
	// number of later answers that were byte-identical to it, which share
	// its verdict.
	mu         sync.Mutex
	first      [][]byte
	firstCount []int
	// readFirst is first as the capacity and read phases left it: answers
	// from the initial serving version.
	readFirst [][]byte

	// Mixed phase (open loop): heavy[i] answers in.heavy[i].
	mixed    []mixedRead
	mixedLag []time.Duration
	heavy    []heavyOut
	// updatesSent and updatesDone bracket the serving version a mixed read
	// can have seen.
	updatesSent, updatesDone atomic.Int64

	// final is a post-mixed-phase answer to in.quality (serve only).
	final []byte
}

// mixedRead is one open-loop read. A read that differs from its body's
// first answer keeps its bytes, as does every read of a traced run.
type mixedRead struct {
	body    int
	lat     time.Duration // from send to answer
	lo, hi  int64         // serving versions the answer may come from
	data    []byte
	ok      bool // answered 200
	matched bool // byte-identical to first[body]
}

// heavyOut is one heavy request of the mixed phase.
type heavyOut struct {
	service time.Duration // from send to answer
	data    []byte
	err     error
}

// drive runs setup, capacity, read, mixed and final phases, then stops the
// server.
func (d *driver) drive() error {
	runs := setupRuns
	if d.o.trace {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		srv, took, probe, err := d.coldStart(i)
		if err != nil {
			return err
		}
		d.setups = append(d.setups, took)
		logf("cold start %d: %v", i+1, took.Round(time.Millisecond))
		if i < runs-1 {
			rss, err := srv.peakRSSMB()
			srv.stop()
			if err != nil {
				return err
			}
			d.peakRSS = append(d.peakRSS, rss)
			// Every cold start of one seed must give the same answer.
			if !bytes.Equal(probe, d.quality) {
				d.failed.Add(1)
				logf("cold start %d answered the probe differently from the first", i+1)
			}
			continue
		}
		d.srv = srv
	}
	defer d.srv.stop()

	share := func(s float64) time.Duration { return time.Duration(s * d.o.seconds * float64(time.Second)) }
	d.first = make([][]byte, len(d.in.reads))
	d.firstCount = make([]int, len(d.in.reads))
	d.capacityPhase(share(capacityShare))
	d.readPhase(share(readShare))
	d.readFirst = append([][]byte(nil), d.first...)
	d.mixedPhase(share(mixedShare))
	if d.w.Heavy == "update" {
		d.final = d.mustAnswer(d.in.quality)
	}
	d.checkStats()
	rss, err := d.srv.peakRSSMB()
	if err != nil {
		return err
	}
	d.peakRSS = append(d.peakRSS, rss)
	return nil
}

// serverArgs are parmbfd's flags for this run.
func (d *driver) serverArgs() []string {
	args := []string{"-in", d.in.graphPath, "-trees", strconv.Itoa(d.w.K),
		"-seed", strconv.FormatUint(d.in.serverSeed, 10)}
	if d.w.Dynamic {
		args = append(args, "-dynamic")
	}
	return args
}

// coldStart spawns a server and times process start to the first answer
// of the probe (in.quality). The probe's answer of the first cold start is
// kept in d.quality.
func (d *driver) coldStart(i int) (*server, time.Duration, []byte, error) {
	logPath := filepath.Join(d.o.work, fmt.Sprintf("%s-seed%d-server%d.log", d.w.Name, d.o.seed, i))
	t0 := time.Now()
	srv, err := startServer(d.o.parmbfd, logPath, d.serverArgs())
	if err != nil {
		return nil, 0, nil, err
	}
	if err := srv.waitReady(startTimeout); err != nil {
		srv.stop()
		return nil, 0, nil, err
	}
	d.srv = srv
	// /stats counts per process, so the tally restarts with each server.
	d.sentQueries.Store(0)
	d.sentBatches.Store(0)
	probe := d.mustAnswer(d.in.quality)
	took := time.Since(t0)
	if probe == nil {
		srv.stop()
		return nil, 0, nil, fmt.Errorf("cold start %d: the probe request failed", i+1)
	}
	if i == 0 {
		d.quality = probe
	}
	return srv, took, probe, nil
}

// readPath is the endpoint of every read request.
const readPath = "/batch"

// mustAnswer sends one read-shaped request whose answer the run needs and
// returns the body, or nil if it failed (counted as failed).
func (d *driver) mustAnswer(req readReq) []byte {
	status, data, ok := d.send(readPath, req.body)
	if !ok {
		logf("request to %s failed: status %d", readPath, status)
		return nil
	}
	d.countRead(len(req.pairs))
	return data
}

// send posts one request, counting it attempted and, unless it is answered
// 200, failed.
func (d *driver) send(path string, body []byte) (int, []byte, bool) {
	d.attempted.Add(1)
	status, data, err := d.srv.post(path, body)
	if err != nil || status != http.StatusOK {
		d.failed.Add(1)
		return status, nil, false
	}
	return status, data, true
}

// countRead records an answered read of pairs pairs in the counters the
// server's /stats must match.
func (d *driver) countRead(pairs int) {
	d.sentQueries.Add(int64(pairs))
	d.sentBatches.Add(1)
}

// noteRead compares an answer of read body b with the body's first answer,
// storing it as the first if there is none yet. It reports whether the
// answer was byte-identical to an earlier one.
func (d *driver) noteRead(b int, data []byte) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.first[b] == nil {
		d.first[b] = data
		return true
	}
	if bytes.Equal(d.first[b], data) {
		d.firstCount[b]++
		return true
	}
	return false
}

// capacityPhase is a closed loop: maxConns clients each send the next read
// body as soon as their previous answer arrives. It measures throughput
// only: with both cores saturated, latency moved with the bench box's load
// by a fifth within one run and between runs.
func (d *driver) capacityPhase(dur time.Duration) {
	var next atomic.Int64
	ends := make([][]time.Duration, maxConns)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				b := int(next.Add(1)-1) % len(d.in.reads)
				req := d.in.reads[b]
				_, data, ok := d.send(readPath, req.body)
				if !ok {
					continue
				}
				ends[c] = append(ends[c], time.Since(start))
				d.countRead(len(req.pairs))
				if !d.noteRead(b, data) {
					// Nothing changes the served trees during this phase.
					d.failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	d.capWall = time.Since(start)
	for c := range ends {
		d.capEnds = append(d.capEnds, ends[c]...)
	}
}

// readPhase is an open loop of reads alone: ReadRate requests per second on
// one connection, timed from send to answer, as the mixed phase's reads are.
func (d *driver) readPhase(dur time.Duration) {
	n := int(dur.Seconds() * d.w.ReadRate)
	d.readLat = make([]time.Duration, 0, n)
	openLoop(time.Now(), d.w.ReadRate, n, func(i int) {
		b := i % len(d.in.reads)
		req := d.in.reads[b]
		t0 := time.Now()
		_, data, ok := d.send(readPath, req.body)
		if !ok {
			return
		}
		d.readLat = append(d.readLat, time.Since(t0))
		d.countRead(len(req.pairs))
		if !d.noteRead(b, data) {
			d.failed.Add(1) // nothing changes the served trees before the mixed phase
		}
	})
}

// mixedPhase is an open loop: reads arrive at ReadRate and heavy requests
// at HeavyRate, each stream on its own connection. Latency is timed from
// send to answer. Timed from the due time, a request would also be charged
// for the requests queued before it on its one connection: on the bench
// box, whose speed halves for minutes at a time, that queueing moved the
// mixed read median by 3× between runs, while the server's own answer time
// moved by less than a tenth.
func (d *driver) mixedPhase(dur time.Duration) {
	nReads := int(dur.Seconds() * d.w.ReadRate)
	nHeavy := min(int(dur.Seconds()*d.w.HeavyRate), len(d.in.heavy))
	d.mixed = make([]mixedRead, nReads)
	d.heavy = make([]heavyOut, nHeavy)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		d.mixedLag = openLoop(start, d.w.ReadRate, nReads, func(i int) {
			b := i % len(d.in.reads)
			req := d.in.reads[b]
			r := &d.mixed[i]
			r.body = b
			r.lo = d.updatesDone.Load()
			t0 := time.Now()
			_, data, ok := d.send(readPath, req.body)
			r.hi = d.updatesSent.Load()
			r.lat = time.Since(t0)
			if !ok {
				return
			}
			r.ok = true
			d.countRead(len(req.pairs))
			r.matched = d.noteRead(b, data)
			if !r.matched || d.o.trace {
				r.data = data
			}
		})
	}()
	go func() {
		defer wg.Done()
		openLoop(start, d.w.HeavyRate, nHeavy, d.sendHeavy)
	}()
	wg.Wait()
}

// sendHeavy sends in.heavy[i] and records the outcome in d.heavy[i].
func (d *driver) sendHeavy(i int) {
	h := &d.heavy[i]
	t0 := time.Now()
	if d.w.Heavy == "update" {
		d.updatesSent.Add(1)
	}
	status, data, ok := d.send("/"+d.w.Heavy, d.in.heavy[i].body)
	h.service, h.data = time.Since(t0), data
	if !ok {
		h.err = fmt.Errorf("status %d", status)
		return
	}
	switch d.w.Heavy {
	case "update":
		d.sentUpdates.Add(1)
		d.updatesDone.Add(1)
	case "kmedian":
		d.sentQueries.Add(1)
	}
}

// openLoop issues count requests at fixed intervals of 1/rate seconds from
// start, handing each to one worker in due order, and returns once all are
// answered. It returns each request's generator lag: how late it was
// handed over, which must stay near zero for the arrival rates to hold.
func openLoop(start time.Time, rate float64, count int, do func(i int)) []time.Duration {
	jobs := make(chan int, count) // sized to the number of sends: the generator never blocks
	lags := make([]time.Duration, count)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range jobs {
			do(i)
		}
	}()
	for i := 0; i < count; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		lags[i] = time.Since(due)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return lags
}

// checkStats compares the server's /stats counters with what it answered.
func (d *driver) checkStats() {
	d.attempted.Add(1)
	status, data, err := d.srv.get("/stats")
	var st struct{ Queries, Batches, Updates int64 }
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(data, &st)
	} else if err == nil {
		err = fmt.Errorf("status %d", status)
	}
	want := [3]int64{d.sentQueries.Load(), d.sentBatches.Load(), d.sentUpdates.Load()}
	if err != nil || [3]int64{st.Queries, st.Batches, st.Updates} != want {
		d.failed.Add(1)
		logf("/stats mismatch: got queries/batches/updates %d/%d/%d, sent %v (err %v)",
			st.Queries, st.Batches, st.Updates, want, err)
	}
}

// endToEndMetrics fills the untraced run's metrics after checking every
// recorded answer.
func (d *driver) endToEndMetrics(m map[string]float64) {
	stretch := d.checkAll()
	setups := make([]float64, len(d.setups))
	for i, s := range d.setups {
		setups[i] = s.Seconds()
	}
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = median(d.peakRSS)
	m["stretch_mean"] = stretch
	m["read_p50_ms"] = quantileMs(d.readLat, 0.50)
	mixed := make([]time.Duration, len(d.mixed))
	for i, r := range d.mixed {
		mixed[i] = r.lat
	}
	m["mixed_read_p50_ms"] = quantileMs(mixed, 0.50)
	logf("samples: %d capacity reads, %d reads, %d mixed reads, %d heavy, %d cold starts",
		len(d.capEnds), len(d.readLat), len(d.mixed), len(d.heavy), len(d.setups))
}

// throughputWindow is the length of the windows the capacity phase's
// throughput is counted in.
const throughputWindow = 500 * time.Millisecond

// readThroughput is the median over the capacity phase's whole windows of
// the pairs answered per second. The bench box stalls for a second or two now
// and then; a median over windows leaves those stalls out, where the whole
// phase's mean would charge them to the program.
func (d *driver) readThroughput() float64 {
	counts := make([]float64, int(d.capWall/throughputWindow))
	for _, e := range d.capEnds {
		if k := int(e / throughputWindow); k < len(counts) {
			counts[k] += float64(d.w.ReadPairs)
		}
	}
	if len(counts) == 0 { // a phase shorter than one window
		return float64(len(d.capEnds)*d.w.ReadPairs) / d.capWall.Seconds()
	}
	return median(counts) / throughputWindow.Seconds()
}

// quantileMs is the nearest-rank q-quantile of ds in milliseconds.
func quantileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)]) / float64(time.Millisecond)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
