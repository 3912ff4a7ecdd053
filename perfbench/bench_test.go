package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildServer compiles parmbfd once per test binary.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "parmbfd")
	out, err := exec.Command("go", "build", "-o", bin, "parmbf/cmd/parmbfd").CombinedOutput()
	if err != nil {
		t.Fatalf("building parmbfd: %v\n%s", err, out)
	}
	return bin
}

// tiny shrinks a workload to n = 64 so a full run takes seconds.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.N = 64
	return w
}

// TestTinyWorkloadsEndToEnd runs every workload at n = 64, untraced and
// traced, against the real server: every metric must be reported, the
// traced replay must reproduce every answer bitwise, and no answer may be
// wrong.
func TestTinyWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers")
	}
	bin := buildServer(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := tiny(t, w.Name), trace
			res, err := run(w, options{seed: 3, seconds: 1, trace: trace, parmbfd: bin, work: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, def := range defs {
				if v, ok := res.Metrics[def.Name]; !ok || v.Unit != def.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, def.Name, v, def.Unit)
				}
			}
			if !trace && res.Metrics["setup_s"].Value <= 0 {
				t.Errorf("%s: setup_s %v", w.Name, res.Metrics["setup_s"].Value)
			}
			if res.Attempted < 10 {
				t.Errorf("%s trace=%v: only %d operations attempted", w.Name, trace, res.Attempted)
			}
			if res.mismatches != 0 {
				t.Errorf("%s: the replay differs from the server on %d answers", w.Name, res.mismatches)
			}
			if !res.Correct {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.Name, trace, res.Failed, res.Attempted)
			}
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON pins the printed metric names and units
// to BENCHMARK.json, and the workloads to its workload list.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark prints %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark %s", i, w.Name, workloads[i].Name)
		}
	}
	if strings.Join(spec.Command, " ") != "bash perfbench/run.sh" {
		t.Errorf("command %q does not run run.sh", spec.Command)
	}
}

// TestDoctoredAnswerFails feeds the checks a /batch answer with one
// distance below the exact one: it and every answer identical to it must
// count as failed, where the true distances pass.
func TestDoctoredAnswerFails(t *testing.T) {
	w := tiny(t, "embed-oracle")
	in, err := makeInputs(w, 5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exactAnswer := func(req readReq) []float64 {
		ds := make([]float64, len(req.pairs))
		for i, p := range req.pairs {
			if p.U != p.V {
				ds[i] = in.dist(in.exact, p)
			}
		}
		return ds
	}
	encode := func(ds []float64) []byte {
		b, err := json.Marshal(batchAnswer{Dists: ds})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	check := func(doctor bool) int64 {
		d := &driver{w: w, in: in}
		d.quality = encode(exactAnswer(in.quality))
		d.first = make([][]byte, len(in.reads))
		d.firstCount = make([]int, len(in.reads))
		ds := exactAnswer(in.reads[0])
		if doctor {
			for i, p := range in.reads[0].pairs {
				if p.U != p.V {
					ds[i] *= 0.5
					break
				}
			}
		}
		d.first[0] = encode(ds)
		d.firstCount[0] = 3 // three later answers were identical
		d.checkAll()
		return d.failed.Load()
	}
	if got := check(false); got != 0 {
		t.Fatalf("exact answers: %d failed, want 0", got)
	}
	if got := check(true); got != 4 {
		t.Fatalf("doctored answer: %d failed, want 4 (the answer and its three repeats)", got)
	}
}
