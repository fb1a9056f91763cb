// Congestion-adaptation guard: the headline claim of the congestion work is
// that online strategy switching contains gray failures — under a permanent
// PFC storm on a spine port the adaptive sweep reroutes around the paused
// port and its steady-state iteration tail beats the frozen-strategy
// baseline by at least congestGainFactor, at 256 and 1024 ranks alike, with
// exact survivor sums and a timeline that is bit-identical across 1/2/4
// workers. This test measures it; with ADAPCC_WRITE_BENCH=1 it also writes
// BENCH_congest.json so readers get the numbers in machine-readable form.
package adapcc

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"adapcc/internal/chaos"
	"adapcc/internal/fabric"
	"adapcc/internal/grayfail"
	"adapcc/internal/scale"
	"adapcc/internal/topology"
)

const (
	// Four spines per pod give ECMP an equal-cost detour around the stormed
	// port (the generator's single-spine default has nothing to switch to).
	congestTopo256  = "fattree:pods=8,servers=4,gpus=8,spines=4"
	congestTopo1024 = "fattree:pods=16,servers=8,gpus=8,spines=4"
	// congestIters: enough rounds that the second half is pure steady state
	// — detection, reroute and the drained backlog all land in the first.
	congestIters = 8
	// congestGainFactor is the regression threshold: adaptive steady-state
	// tail must be at least this factor better than frozen. The storm pins
	// one spine port at a 0.2% pause trickle, so the frozen sweep pays a
	// ~500x slowdown on every crossing flow each round; rerouting recovers
	// far more than 1.3x (measured ~30-40x), but the guard only defends
	// the claim.
	congestGainFactor = 1.3
)

// congestRow is one measurement in BENCH_congest.json.
type congestRow struct {
	Topo          string  `json:"topo"`
	Ranks         int     `json:"ranks"`
	Workers       int     `json:"workers"`
	Adaptive      bool    `json:"adaptive"`
	WallMs        float64 `json:"wall_ms"`
	VirtualMs     float64 `json:"virtual_ms"`
	TailMs        float64 `json:"iter_tail_ms"` // p99 proxy: worst steady-state round
	Degraded      uint64  `json:"verdicts_degraded"`
	Restored      uint64  `json:"verdicts_restored"`
	Condemned     uint64  `json:"verdicts_condemned"`
	PathReroutes  uint64  `json:"path_reroutes"`
	Adaptations   uint64  `json:"adaptations"`
	TimeToAdaptMs float64 `json:"time_to_adapt_max_ms"`
	PauseFrames   uint64  `json:"pause_frames"`
	MaxQueueBytes int64   `json:"max_queue_bytes"`
	Checksum      string  `json:"checksum"`
}

// congestTail is the steady-state iteration tail: the worst round after the
// first half. With congestIters=8 rounds that is a p99-style worst-of-tail
// over the post-adaptation regime; the shared first half absorbs the
// in-flight crawl through the paused port (frozen and adaptive alike pay
// it, so it would only dilute the comparison).
func congestTail(tb testing.TB, res *scale.Result) time.Duration {
	tb.Helper()
	if len(res.IterDurations) != congestIters {
		tb.Fatalf("expected %d iteration durations, got %v", congestIters, res.IterDurations)
	}
	var worst time.Duration
	for _, d := range res.IterDurations[congestIters/2:] {
		if d > worst {
			worst = d
		}
	}
	return worst
}

// runCongestSweep storms the probed spine port permanently from t=0 and
// runs the multi-round sweep to completion. The per-round barrier inside
// scale.Run verifies every rank's sums against the closed form, so a
// returned result certifies exactness at this world size.
func runCongestSweep(tb testing.TB, topoName string, workers int, adaptive bool) (*scale.Result, congestRow) {
	tb.Helper()
	spec, err := topology.ParseTopo(topoName)
	if err != nil {
		tb.Fatal(err)
	}
	topo, err := spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	hot, err := scale.ProbeSpineEdge(scale.Options{Topo: topo, Seed: 1})
	if err != nil {
		tb.Fatalf("%s: %v", topoName, err)
	}
	cs := chaos.Spec{Seed: 1, Faults: []chaos.Fault{
		{Kind: chaos.PFCStorm, Start: 0, Edge: hot, Rank: -1, Pod: -1}, // Dur 0 = permanent
	}}
	res, err := scale.Run(scale.Options{
		Topo: topo, Workers: workers, Seed: 1, Iterations: congestIters,
		// The measured regime is a severe but localized storm. The spine
		// tiers here are fat (Servers x NIC split over 4 spines), so the
		// default 2% pause trickle still moves a segment quickly: pin the
		// port at 0.2% instead, where a gray port dominates the barrier
		// unless the sweep routes around it. Deep buffers (8 MiB PFC
		// threshold) keep the pause from cascading into every ingress port
		// of the victim pod, and the tight degrade threshold draws verdicts
		// only on near-dead ports — ordinary ECMP-collision queueing (ratio
		// ~0.5) must not flap the detector, or the adaptive run thrashes
		// reroutes instead of converging.
		Congest: &scale.CongestSpec{
			Adaptive: adaptive,
			Fabric:   fabric.CongestOptions{PauseScale: 0.002, PFCThreshold: 8 << 20},
			Detect:   grayfail.Options{DegradeBelow: 0.05, RecoverAbove: 0.5},
		},
		Chaos: &cs,
	})
	if err != nil {
		tb.Fatalf("%s (adaptive=%v): stormed sweep failed: %v", topoName, adaptive, err)
	}
	cg := res.Congest
	if cg == nil || cg.Degraded == 0 {
		tb.Fatalf("%s (adaptive=%v): permanent PFC storm drew no degraded verdict: %+v", topoName, adaptive, cg)
	}
	if cg.MaxQueueBytes == 0 {
		tb.Fatalf("%s: storm built no queue: %+v", topoName, cg)
	}
	if cg.Condemned == 0 {
		tb.Fatalf("%s: permanently stormed port was never condemned: %+v", topoName, cg)
	}
	if !adaptive && cg.PathReroutes != 0 {
		tb.Fatalf("%s: frozen sweep rerouted: %+v", topoName, cg)
	}
	return res, congestRow{
		Topo:          res.Name,
		Ranks:         res.Ranks,
		Workers:       res.Workers,
		Adaptive:      adaptive,
		WallMs:        float64(res.Wall) / float64(time.Millisecond),
		VirtualMs:     float64(res.Elapsed) / float64(time.Millisecond),
		TailMs:        float64(congestTail(tb, res)) / float64(time.Millisecond),
		Degraded:      cg.Degraded,
		Restored:      cg.Restored,
		Condemned:     cg.Condemned,
		PathReroutes:  cg.PathReroutes,
		Adaptations:   cg.Adaptations,
		TimeToAdaptMs: float64(cg.TimeToAdaptMax) / float64(time.Millisecond),
		PauseFrames:   cg.PauseFrames,
		MaxQueueBytes: cg.MaxQueueBytes,
		Checksum:      jsonHex(res.Checksum),
	}
}

// requireCongestBitIdentical compares two stormed runs field by field: data
// checksum, the full congestion fold, and every per-iteration duration.
func requireCongestBitIdentical(tb testing.TB, label string, a, b *scale.Result) {
	tb.Helper()
	if a.Checksum != b.Checksum {
		tb.Errorf("%s: checksums diverge: %#x vs %#x", label, a.Checksum, b.Checksum)
	}
	if *a.Congest != *b.Congest {
		tb.Errorf("%s: congestion folds diverge:\n%+v\nvs\n%+v", label, *a.Congest, *b.Congest)
	}
	for i := range a.IterDurations {
		if a.IterDurations[i] != b.IterDurations[i] {
			tb.Errorf("%s: iteration %d durations diverge: %v vs %v",
				label, i, a.IterDurations, b.IterDurations)
			break
		}
	}
}

// congestGuardAt runs the frozen/adaptive pair at one world size, asserts
// the adaptation gain and 1/2/4-worker bit-identity, and returns the rows.
func congestGuardAt(t *testing.T, topoName string) []congestRow {
	t.Helper()
	frozen, frozenRow := runCongestSweep(t, topoName, 4, false)
	adaptive := make(map[int]*scale.Result, 3)
	rows := []congestRow{frozenRow}
	for _, w := range []int{1, 2, 4} {
		res, row := runCongestSweep(t, topoName, w, true)
		adaptive[w] = res
		rows = append(rows, row)
	}
	for _, w := range []int{2, 4} {
		requireCongestBitIdentical(t, fmt.Sprintf("%s adaptive w1/w%d", topoName, w), adaptive[1], adaptive[w])
	}
	ft, at := congestTail(t, frozen), congestTail(t, adaptive[4])
	gain := float64(ft) / float64(at)
	t.Logf("%s: steady-state tail frozen %v, adaptive %v (%.2fx)", topoName, ft, at, gain)
	if gain < congestGainFactor {
		t.Errorf("%s: adaptive tail %v not >=%.1fx better than frozen %v (frozen %v, adaptive %v)",
			topoName, at, congestGainFactor, ft, frozen.IterDurations, adaptive[4].IterDurations)
	}
	ac := adaptive[4].Congest
	if ac.PathReroutes == 0 || ac.Adaptations == 0 || ac.TimeToAdaptMax <= 0 {
		t.Errorf("%s: adaptive run shows no adaptation: %+v", topoName, ac)
	}
	return rows
}

// TestCongestGuard measures steady-state iteration tail under the identical
// permanent PFC storm at 256 and 1024 ranks, frozen vs adaptive, asserts
// the >=1.3x adaptation gain and the 1/2/4-worker bit-identity at each
// size, and (with ADAPCC_WRITE_BENCH=1) writes BENCH_congest.json. Every run's checksum is validated
// against the closed-form sums inside scale.Run, so passing this guard
// also certifies survivor-sum exactness under the storm.
func TestCongestGuard(t *testing.T) {
	rows := congestGuardAt(t, congestTopo256)
	rows = append(rows, congestGuardAt(t, congestTopo1024)...)

	writeBenchFile(t, "BENCH_congest.json", struct {
		GOMAXPROCS int          `json:"gomaxprocs"`
		Rows       []congestRow `json:"rows"`
	}{runtime.GOMAXPROCS(0), rows})
}
