// Recovery-at-scale guard: the headline claim of the scale-out resilience
// work is that time-to-recover from a single intra-domain link failure is
// governed by the failing domain, not the world size — TTR at 4096 ranks
// stays within a small constant factor of TTR at 256 ranks. This test
// measures it; with ADAPCC_WRITE_BENCH=1 it also writes BENCH_recover.json
// so readers get the numbers in machine-readable form.
package adapcc

import (
	"os"
	"runtime"
	"testing"
	"time"

	"adapcc/internal/chaos"
	"adapcc/internal/scale"
	"adapcc/internal/topology"
)

const (
	scaleTopo256 = "rail:groups=8,servers=4,rails=8"
	// ttrScaleFactor bounds TTR growth from 256 to 4096 ranks (16x world):
	// recovery is domain-local, so the only admissible growth is the mild
	// deepening of the per-domain timeline, not anything world-sized.
	ttrScaleFactor = 4.0
)

// recoverRow is one measurement in BENCH_recover.json.
type recoverRow struct {
	Topo        string  `json:"topo"`
	Ranks       int     `json:"ranks"`
	Workers     int     `json:"workers"`
	WallMs      float64 `json:"wall_ms"`
	VirtualMs   float64 `json:"virtual_ms"`
	TTRMaxMs    float64 `json:"ttr_max_ms"`
	DomainLocal uint64  `json:"recoveries_domain_local"`
	Boundary    uint64  `json:"recoveries_boundary"`
	Deadlines   uint64  `json:"deadlines"`
	Retransmits uint64  `json:"retransmits"`
	Reroutes    uint64  `json:"reroutes"`
	Checksum    string  `json:"checksum"`
}

// runRecoverySweep kills rank 0's ring-successor NVLink edge permanently at
// t=0 and runs the guarded sweep to completion. The fault is asserted to be
// domain-local before the run and via the recovery fold after it.
func runRecoverySweep(tb testing.TB, topoName string, workers int) (*scale.Result, recoverRow) {
	tb.Helper()
	spec, err := topology.ParseTopo(topoName)
	if err != nil {
		tb.Fatal(err)
	}
	topo, err := spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	g := topo.Graph
	// Ranks 0 and 1 share server 0 (rank order is server-major), and rank 1
	// is rank 0's ring successor — the same first hop the sweep routes.
	g0, _ := g.GPUByRank(0)
	g1, _ := g.GPUByRank(1)
	path := g.ShortestPath(g0, g1)
	if len(path) < 2 {
		tb.Fatalf("no route rank 0 -> 1 on %s", topoName)
	}
	ge, ok := g.EdgeBetween(path[0], path[1])
	if !ok {
		tb.Fatal("no first-hop edge")
	}
	part, err := topology.NewPartition(g, topo.NodeDomain)
	if err != nil {
		tb.Fatal(err)
	}
	if part.EdgeCross[ge] >= 0 || part.EdgeDomain[ge] != part.NodeDomain[g0] {
		tb.Fatalf("edge %d is not domain-local to rank 0", ge)
	}
	cs := chaos.Spec{Seed: 1, Faults: []chaos.Fault{
		{Kind: chaos.LinkDown, Start: 0, Edge: ge, Rank: -1}, // permanent
	}}
	res, err := scale.Run(scale.Options{Topo: topo, Workers: workers, Seed: 1, Chaos: &cs})
	if err != nil {
		tb.Fatalf("%s: faulted sweep failed: %v", topoName, err)
	}
	rec := res.Recovery
	if rec == nil || rec.DomainLocal == 0 {
		tb.Fatalf("%s: no domain-local recovery recorded: %+v", topoName, rec)
	}
	if rec.Boundary != 0 || res.RecoveryEvents.Boundary != 0 {
		tb.Fatalf("%s: intra-domain link kill escalated to boundary recovery: fold %+v fabric %+v",
			topoName, rec, res.RecoveryEvents)
	}
	if rec.TimeToRecoverMax <= 0 {
		tb.Fatalf("%s: recovered with non-positive TTR: %+v", topoName, rec)
	}
	return res, recoverRow{
		Topo:        res.Name,
		Ranks:       res.Ranks,
		Workers:     res.Workers,
		WallMs:      float64(res.Wall) / float64(time.Millisecond),
		VirtualMs:   float64(res.Elapsed) / float64(time.Millisecond),
		TTRMaxMs:    float64(rec.TimeToRecoverMax) / float64(time.Millisecond),
		DomainLocal: rec.DomainLocal,
		Boundary:    rec.Boundary,
		Deadlines:   rec.Deadlines,
		Retransmits: rec.Retransmits,
		Reroutes:    rec.Reroutes,
		Checksum:    jsonHex(res.Checksum),
	}
}

// TestRecoveryScaleGuard measures time-to-recover for the identical
// single-link failure at 256 and 1024 ranks (and 4096 with
// ADAPCC_SCALE_BENCH=1), asserts sublinear TTR growth, and (with
// ADAPCC_WRITE_BENCH=1) writes BENCH_recover.json. The data checksum of every faulted run is already
// validated against the closed-form sums inside scale.Run, so passing this
// guard also certifies survivor-sum exactness at each world size.
func TestRecoveryScaleGuard(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	workers := procs
	if workers < 2 {
		workers = 2
	}

	r256, row256 := runRecoverySweep(t, scaleTopo256, workers)
	r1024, row1024 := runRecoverySweep(t, scaleTopo1024, workers)
	rows := []recoverRow{row256, row1024}

	ttr256 := r256.Recovery.TimeToRecoverMax
	ttr1024 := r1024.Recovery.TimeToRecoverMax
	t.Logf("TTR: 256 ranks %v, 1024 ranks %v", ttr256, ttr1024)
	if float64(ttr1024) > ttrScaleFactor*float64(ttr256) {
		t.Errorf("TTR grew superlinearly with world size: 256 ranks %v -> 1024 ranks %v (> %.1fx)",
			ttr256, ttr1024, ttrScaleFactor)
	}

	if os.Getenv("ADAPCC_SCALE_BENCH") == "1" {
		r4096, row4096 := runRecoverySweep(t, scaleTopo4096, workers)
		rows = append(rows, row4096)
		ttr4096 := r4096.Recovery.TimeToRecoverMax
		t.Logf("TTR: 4096 ranks %v (%.2fx of 256)", ttr4096, float64(ttr4096)/float64(ttr256))
		if float64(ttr4096) > ttrScaleFactor*float64(ttr256) {
			t.Errorf("TTR at 4096 ranks (%v) exceeds %.1fx of 256 ranks (%v): recovery is not domain-local",
				ttr4096, ttrScaleFactor, ttr256)
		}
	}

	writeBenchFile(t, "BENCH_recover.json", struct {
		GOMAXPROCS int          `json:"gomaxprocs"`
		Rows       []recoverRow `json:"rows"`
	}{procs, rows})
}
