// Thousand-rank sweep benchmarks for the partitioned event engine, and the
// CI guard that keeps them interactive. With ADAPCC_WRITE_BENCH=1,
// TestScaleBenchGuard writes its measurements to BENCH_scale.json so
// readers get the numbers in machine-readable form.
//
// The committed BENCH_scale.json reflects the machine it was generated on;
// the speedup assertion is conditional on real parallelism being available
// (GOMAXPROCS >= 4), because on a single-CPU runner the worker pool can
// only add coordination overhead.
package adapcc

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"adapcc/internal/scale"
	"adapcc/internal/topology"
)

const (
	scaleTopo1024 = "rail:groups=16,servers=8,rails=8"
	scaleTopo4096 = "rail:groups=32,servers=16,rails=8"
	// scaleBudget is the interactivity bound for the 1024-rank sweep.
	scaleBudget = 60 * time.Second
)

// writeBenchFile marshals a guard's measurements and writes them to the
// named committed BENCH_*.json file only when ADAPCC_WRITE_BENCH=1, so a
// plain `go test ./...` leaves the worktree unchanged.
func writeBenchFile(t *testing.T, name string, v any) {
	t.Helper()
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("ADAPCC_WRITE_BENCH") != "1" {
		return
	}
	if err := os.WriteFile(name, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func runSweep(tb testing.TB, name string, workers int) *scale.Result {
	tb.Helper()
	spec, err := topology.ParseTopo(name)
	if err != nil {
		tb.Fatal(err)
	}
	topo, err := spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	res, err := scale.Run(scale.Options{Topo: topo, Workers: workers, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// benchRow is one measurement in BENCH_scale.json.
type benchRow struct {
	Topo      string  `json:"topo"`
	Ranks     int     `json:"ranks"`
	Domains   int     `json:"domains"`
	Workers   int     `json:"workers"`
	WallMs    float64 `json:"wall_ms"`
	VirtualMs float64 `json:"virtual_ms"`
	Events    uint64  `json:"events"`
	Windows   uint64  `json:"windows"`
	Checksum  string  `json:"checksum"`
	Speedup   float64 `json:"busy_over_wall"`
}

func row(r *scale.Result) benchRow {
	return benchRow{
		Topo:      r.Name,
		Ranks:     r.Ranks,
		Domains:   r.Domains,
		Workers:   r.Workers,
		WallMs:    float64(r.Wall) / float64(time.Millisecond),
		VirtualMs: float64(r.Elapsed) / float64(time.Millisecond),
		Events:    r.Fired,
		Windows:   r.Windows,
		Checksum:  jsonHex(r.Checksum),
		Speedup:   r.Speedup,
	}
}

func jsonHex(v uint64) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 18)
	out[0], out[1] = '0', 'x'
	for i := 0; i < 16; i++ {
		out[17-i] = digits[v&0xf]
		v >>= 4
	}
	return string(out)
}

// TestScaleBenchGuard is the CI wall-clock guard: the 1024-rank
// rail-optimized AllReduce must finish well inside the interactive budget,
// single- and multi-worker runs must agree bit-for-bit, and (with
// ADAPCC_WRITE_BENCH=1) the numbers land in BENCH_scale.json. With ADAPCC_SCALE_BENCH=1 it also runs the
// 4096-rank sweep and records the 1-worker versus multi-worker wall-clock
// ratio; the >=2x speedup assertion applies only when the host actually
// has parallelism (GOMAXPROCS >= 4).
func TestScaleBenchGuard(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	multi := procs
	if multi < 2 {
		multi = 2
	}

	r1 := runSweep(t, scaleTopo1024, 1)
	rN := runSweep(t, scaleTopo1024, multi)
	if r1.Wall > scaleBudget || rN.Wall > scaleBudget {
		t.Errorf("1024-rank sweep exceeded %v: 1 worker %v, %d workers %v",
			scaleBudget, r1.Wall, multi, rN.Wall)
	}
	if r1.Elapsed != rN.Elapsed || r1.Checksum != rN.Checksum || r1.Fired != rN.Fired {
		t.Errorf("worker count changed the simulation: 1w (%v, %s, %d ev) vs %dw (%v, %s, %d ev)",
			r1.Elapsed, jsonHex(r1.Checksum), r1.Fired, multi, rN.Elapsed, jsonHex(rN.Checksum), rN.Fired)
	}
	rows := []benchRow{row(r1), row(rN)}

	if os.Getenv("ADAPCC_SCALE_BENCH") == "1" {
		b1 := runSweep(t, scaleTopo4096, 1)
		bN := runSweep(t, scaleTopo4096, multi)
		if b1.Elapsed != bN.Elapsed || b1.Checksum != bN.Checksum {
			t.Errorf("4096-rank worker count changed the simulation: %v/%s vs %v/%s",
				b1.Elapsed, jsonHex(b1.Checksum), bN.Elapsed, jsonHex(bN.Checksum))
		}
		ratio := float64(b1.Wall) / float64(bN.Wall)
		t.Logf("4096 ranks: 1 worker %v, %d workers %v (%.2fx)", b1.Wall, multi, bN.Wall, ratio)
		if procs >= 4 && ratio < 2 {
			t.Errorf("4096-rank multi-worker speedup %.2fx < 2x on %d CPUs", ratio, procs)
		}
		rows = append(rows, row(b1), row(bN))
	}

	writeBenchFile(t, "BENCH_scale.json", struct {
		GOMAXPROCS int        `json:"gomaxprocs"`
		Rows       []benchRow `json:"rows"`
	}{procs, rows})
}

// BenchmarkScale1024AllReduce measures one full 1024-rank rail-optimized
// AllReduce per iteration on the partitioned engine (GOMAXPROCS workers).
func BenchmarkScale1024AllReduce(b *testing.B) {
	spec, err := topology.ParseTopo(scaleTopo1024)
	if err != nil {
		b.Fatal(err)
	}
	topo, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scale.Run(scale.Options{Topo: topo, Workers: runtime.GOMAXPROCS(0), Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Elapsed)/float64(time.Millisecond), "virtual-ms")
		b.ReportMetric(float64(res.Fired), "events")
	}
}
