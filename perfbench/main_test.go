package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// definition is the part of BENCHMARK.json the self-test checks against.
type definition struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func loadDefinition(t *testing.T) definition {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def definition
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

func smallRun(t *testing.T, name string, trace bool, state string) *report {
	t.Helper()
	rep, err := runBench(config{
		workload: name, seed: 7, seconds: 100 * time.Millisecond, trace: trace,
		setupRepeats: 1, small: true, stateDir: state,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func byName(ms []metric) map[string]metric {
	out := map[string]metric{}
	for _, m := range ms {
		out[m.Name] = m
	}
	return out
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at its smallest
// size, untraced and traced, and checks it verifies every op, reproduces
// its fingerprints across the two runs, and reports every metric
// BENCHMARK.json names with that metric's unit. The traced run's per-module
// CPU buckets must add up to the profile total.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	def := loadDefinition(t)
	if len(def.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			state := t.TempDir()
			plain := smallRun(t, w.Name, false, state)
			traced := smallRun(t, w.Name, true, state) // same seed: fingerprints must match
			for _, rep := range []*report{plain, traced} {
				if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("run failed: attempted %d failed %d: %v", rep.attempted, rep.failed, rep.errors)
				}
			}
			got := byName(plain.endToEnd)
			for _, m := range def.EndToEnd {
				if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
					t.Errorf("end-to-end %s: got %+v, want unit %s", m.Name, g, m.Unit)
				} else if g.Value == 0 {
					t.Errorf("end-to-end %s reads 0", m.Name)
				}
			}
			if len(plain.endToEnd) != len(def.EndToEnd) {
				t.Errorf("%d end-to-end metrics reported, BENCHMARK.json names %d", len(plain.endToEnd), len(def.EndToEnd))
			}
			extra := byName(plain.extra)
			want := map[string]string{"testbed-dense": "sim_algbw_gbps", "recover-256": "ttr_virtual_ms_p50",
				"sweep-1024": "ttr_virtual_ms_p50", "congest-512": "iter_tail_virtual_ms"}[w.Name]
			for _, name := range []string{want, "fail_ratio"} {
				if _, ok := extra[name]; !ok {
					t.Errorf("workload figure %s missing: %+v", name, plain.extra)
				}
			}

			layers := byName(traced.perLayer)
			for _, m := range def.PerLayer {
				if g, ok := layers[m.Name]; !ok || g.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v, want unit %s", m.Name, g, m.Unit)
				}
			}
			if len(traced.perLayer) != len(def.PerLayer) {
				t.Errorf("%d per-layer metrics reported, BENCHMARK.json names %d", len(traced.perLayer), len(def.PerLayer))
			}
			var buckets float64
			for _, b := range append(modules, "runtime", "other", "bench") {
				buckets += layers[b+".self_ms"].Value
			}
			if total := layers["profile.total_ms"].Value; total <= 0 || math.Abs(buckets-total) > 1e-6*total {
				t.Errorf("module buckets sum to %v ms, profile total is %v ms", buckets, total)
			}
		})
	}
}

// TestWrongExpectationFails corrupts one expected checksum per workload and
// checks the gate counts the op as failed.
func TestWrongExpectationFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runBench(config{
				workload: w.name, seed: 7, seconds: 100 * time.Millisecond,
				setupRepeats: 1, small: true, wrongExpect: true, stateDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.correct || rep.failed == 0 || byName(rep.extra)["fail_ratio"].Value <= 0 {
				t.Errorf("a wrong expected checksum went unnoticed: correct %v, failed %d of %d", rep.correct, rep.failed, rep.attempted)
			}
		})
	}
}

// TestDenseAlltoAllSmallTensors runs the 256 KiB dense AlltoAll the
// testbed-dense block would run at its smallest size. It fails at this
// commit: the program returns mis-laid-out blocks for AlltoAll tensors of
// 256 KiB and below on the 24-rank testbed, which is why the block's
// smallest AlltoAll runs at alltoallMinBytes instead.
func TestDenseAlltoAllSmallTensors(t *testing.T) {
	d := newDense(config{seed: 1})
	if err := d.setup(newTracer()); err != nil {
		t.Fatal(err)
	}
	n := len(d.ranks)
	d.ops = []denseOp{{prim: "alltoall", elems: (256 << 10) / 4 / n * n, salt: 1, root: -1}}
	if _, err := d.run(0, newTracer()); err != nil {
		t.Error(err)
	}
}

// TestAttribution checks the bucketing rules on hand-made samples.
func TestAttribution(t *testing.T) {
	a := attribute([]cpuSample{
		{funcs: []string{"runtime.mallocgc", "adapcc/internal/ir.Verify", "adapcc/internal/core.(*AdapCC).patchResult", "main.main"}, ns: 10},
		{funcs: []string{"runtime.gcBgMarkWorker"}, ns: 20},
		{funcs: []string{"adapcc/internal/metrics.(*Counter).Add", "adapcc/internal/sim.(*Engine).Run"}, ns: 30},
		{funcs: []string{"runtime.memmove", "main.(*dense).check", "main.main"}, ns: 40},
		{funcs: []string{"adapcc/internal/payload.dense.AddFrom"}, span: spanInput, ns: 50},
	})
	want := map[string]time.Duration{"ir": 10, "runtime": 20, "other": 30, "bench": 90}
	for k, v := range want {
		if a.self[k] != v {
			t.Errorf("self[%s] = %v, want %v (all: %v)", k, a.self[k], v, a.self)
		}
	}
	if a.cum["core"] != 10 || a.cum["sim"] != 30 || a.total != 150 {
		t.Errorf("cum %v total %v", a.cum, a.total)
	}
	if got, want := a.coverage(), 1-30.0/60; math.Abs(got-want) > 1e-12 {
		t.Errorf("coverage %v, want %v", got, want)
	}
}

// TestNormalise checks that an op's CPU time is scaled by refNominal over
// the median kernel time in its window, so a slow kernel run next to it
// (one outlier in the window) does not move it.
func TestNormalise(t *testing.T) {
	nominal := ms(refNominal)
	cpu := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10}
	ref := []float64{nominal, nominal, nominal, nominal, 5 * nominal, nominal, nominal, nominal, nominal}
	for i, got := range normalise(cpu, ref) {
		if got != 10 {
			t.Errorf("op %d normalised to %v, want 10", i, got)
		}
	}
	slow := []float64{2 * nominal, 2 * nominal, 2 * nominal}
	for i, got := range normalise([]float64{20, 20, 20}, slow) {
		if got != 10 {
			t.Errorf("op %d on a host at half speed normalised to %v, want 10", i, got)
		}
	}
}
