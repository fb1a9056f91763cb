// Synthesis-scale benchmarks: full search vs sketch-guided vs incremental
// patching at 256, 1024 and 4096 ranks, with the CI guard that keeps
// re-synthesis (the recovery path's latency) honest. With
// ADAPCC_WRITE_BENCH=1 measurements land in BENCH_synth.json.
//
// Two notions of cost are recorded per row. wall_ms is host wall time —
// useful for sizing, but it inherits the evaluator's superlinear growth in
// world size (the shared load table couples every flow). solve_ms is the
// simulated synthesis charge (synth.Result.SolveTime, what Fig. 19c-style
// reconstruction overhead is billed from): the full search pays one unit
// per candidate evaluation, while an incremental patch pays exactly one
// unit at any scale. That constant is the "re-synthesis sublinear in world
// size" guarantee — the patched path's solve charge does not grow with the
// world at all — and it is asserted deterministically below, alongside the
// >=5x wall-clock margin over the full search at every measured scale.
package adapcc

import (
	"os"
	"sort"
	"testing"
	"time"

	"adapcc/internal/cluster"
	"adapcc/internal/strategy"
	"adapcc/internal/synth"
	"adapcc/internal/topology"
)

// synthWorlds are the benchmark scales: servers x 8 GPUs. 4096 ranks only
// runs with ADAPCC_SCALE_BENCH=1 (its full search alone takes ~10s).
var synthWorlds = []struct {
	servers int
	gated   bool
}{
	{32, false},  // 256 ranks
	{128, false}, // 1024 ranks
	{512, true},  // 4096 ranks
}

// synthRow is one measurement in BENCH_synth.json.
type synthRow struct {
	Ranks       int     `json:"ranks"`
	Mode        string  `json:"mode"` // full | sketch | incremental
	WallMs      float64 `json:"wall_ms"`
	SolveMs     float64 `json:"solve_ms"`
	Variant     string  `json:"variant"`
	SubsPatched int     `json:"subs_patched,omitempty"`
	SubsTotal   int     `json:"subs_total,omitempty"`
}

func medianDuration(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// TestSynthScaleGuard measures full, sketch-guided and incremental
// re-synthesis at each world size, writes BENCH_synth.json (with
// ADAPCC_WRITE_BENCH=1), and asserts:
//
//   - the incremental patch is >=5x faster (wall clock) than the full
//     search at every measured scale — the 1024-rank row is the
//     acceptance bar, and in practice the margin is two orders;
//   - the patch's simulated solve charge is the same single-evaluation
//     constant at every world size (sublinear — constant — in world
//     size), while the full search's charge is >=5x larger;
//   - the patch touches only the sub-collectives the excluded link
//     actually crossed (subs_patched < subs_total).
func TestSynthScaleGuard(t *testing.T) {
	gate := os.Getenv("ADAPCC_SCALE_BENCH") == "1"
	var rows []synthRow
	var incSolve []time.Duration
	type scaleResult struct {
		ranks     int
		fullWall  time.Duration
		incWall   time.Duration
		fullSolve time.Duration
		incSolve  time.Duration
	}
	var perScale []scaleResult

	for _, w := range synthWorlds {
		if w.gated && !gate {
			t.Logf("%d ranks: skipped (set ADAPCC_SCALE_BENCH=1 to include)", w.servers*8)
			continue
		}
		ranks := w.servers * 8
		cl, err := cluster.Homogeneous(topology.TransportRDMA, w.servers, 8)
		if err != nil {
			t.Fatal(err)
		}
		g, err := cl.LogicalGraph()
		if err != nil {
			t.Fatal(err)
		}
		costs := synth.NewCosts(g, nil)
		// ExactM keeps M=4 sub-collectives in the winning strategy, so the
		// incremental patch has untouched subs to leave alone.
		req := synth.Request{Primitive: strategy.AllReduce, Bytes: 64 << 20, Root: -1, M: 4, ExactM: true}
		reps := 3
		if ranks >= 4096 {
			reps = 1
		}

		var full *synth.Result
		var walls []time.Duration
		for i := 0; i < reps; i++ {
			start := time.Now()
			full, err = synth.Synthesize(costs, req)
			if err != nil {
				t.Fatal(err)
			}
			walls = append(walls, time.Since(start))
		}
		fullWall := medianDuration(walls)
		rows = append(rows, synthRow{
			Ranks: ranks, Mode: "full", WallMs: ms(fullWall), SolveMs: ms(full.SolveTime), Variant: full.Variant,
		})

		sketched := req
		sketched.Sketch = &synth.Sketch{Cut: synth.CutServer, Allow: []string{full.Variant}, ChunkBytes: 4 << 20}
		walls = nil
		var skres *synth.Result
		for i := 0; i < reps; i++ {
			start := time.Now()
			skres, err = synth.Synthesize(costs, sketched)
			if err != nil {
				t.Fatal(err)
			}
			walls = append(walls, time.Since(start))
		}
		sketchWall := medianDuration(walls)
		rows = append(rows, synthRow{
			Ranks: ranks, Mode: "sketch", WallMs: ms(sketchWall), SolveMs: ms(skres.SolveTime), Variant: skres.Variant,
		})

		// Incremental: exclude the first hop of the first flow and patch the
		// full result around it.
		f := full.Strategy.SubCollectives[0].Flows[0]
		pair := [2]topology.NodeID{f.Path[0], f.Path[1]}
		fg := g.CloneFilteredEdges(func(e topology.Edge) bool {
			return !(e.From == pair[0] && e.To == pair[1]) && !(e.From == pair[1] && e.To == pair[0])
		})
		pc := costs.RemapTo(fg)
		walls = nil
		var patched *synth.Result
		var stats synth.PatchStats
		for i := 0; i < 5; i++ {
			start := time.Now()
			patched, stats, err = synth.Patch(pc, full, synth.Delta{Kind: synth.DeltaExclude, Pair: pair})
			if err != nil {
				t.Fatal(err)
			}
			walls = append(walls, time.Since(start))
		}
		incWall := medianDuration(walls)
		rows = append(rows, synthRow{
			Ranks: ranks, Mode: "incremental", WallMs: ms(incWall), SolveMs: ms(patched.SolveTime),
			Variant: patched.Variant, SubsPatched: stats.SubsPatched, SubsTotal: stats.SubsTotal,
		})
		t.Logf("%d ranks: full %v (solve %v), sketch %v, incremental %v (solve %v, %d/%d subs patched)",
			ranks, fullWall, full.SolveTime, sketchWall, incWall, patched.SolveTime,
			stats.SubsPatched, stats.SubsTotal)

		if stats.SubsPatched < 1 || stats.SubsPatched >= stats.SubsTotal {
			t.Errorf("%d ranks: patch touched %d of %d subs; the delta crossed one sub's flow, the rest must be untouched",
				ranks, stats.SubsPatched, stats.SubsTotal)
		}
		incSolve = append(incSolve, patched.SolveTime)
		perScale = append(perScale, scaleResult{ranks, fullWall, incWall, full.SolveTime, patched.SolveTime})
	}

	for _, s := range perScale {
		if s.incWall*5 > s.fullWall {
			t.Errorf("%d ranks: incremental %v is not >=5x faster than full %v", s.ranks, s.incWall, s.fullWall)
		}
		if s.incSolve*5 > s.fullSolve {
			t.Errorf("%d ranks: incremental solve charge %v is not >=5x below full %v", s.ranks, s.incSolve, s.fullSolve)
		}
	}
	// The sublinearity backstop: the patch charges one evaluation no matter
	// the world size, so its solve time must be identical across scales.
	for i := 1; i < len(incSolve); i++ {
		if incSolve[i] != incSolve[0] {
			t.Errorf("incremental solve charge grew with world size: %v vs %v", incSolve[i], incSolve[0])
		}
	}

	writeBenchFile(t, "BENCH_synth.json", struct {
		Rows []synthRow `json:"rows"`
	}{rows})
}
