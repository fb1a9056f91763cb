package main

import (
	"fmt"
	"time"

	"adapcc/internal/chaos"
	"adapcc/internal/fabric"
	"adapcc/internal/grayfail"
	"adapcc/internal/metrics"
	"adapcc/internal/scale"
	"adapcc/internal/topology"
)

// benchWorkers is the sharded engine's worker count in timed ops. The
// benchmark runs on one OS thread (see main), so a timed op never waits on
// a second core the host may have lent elsewhere; the traced run measures
// the engine at Workers = nproc separately (sim.parallel_gain).
const benchWorkers = 1

// scaleBlock is how many seeded variants a scale-tier workload cycles
// through: op i runs variant i mod scaleBlock.
const scaleBlock = 8

const (
	congestTopo      = "fattree:pods=8,servers=8,gpus=8,spines=4"
	congestTopoSmall = "fattree:pods=4,servers=2,gpus=4,spines=2"
	congestIters     = 8
	sweepTopo        = "rail:groups=16,servers=8,rails=8"
	sweepTopoSmall   = "rail:groups=2,servers=2,rails=4"
)

// congestSpec is the adaptive storm regime of the repository's congestion
// guard: the stormed spine port pinned at a 0.2% pause trickle, deep PFC
// buffers, and a degrade threshold that only near-dead ports cross.
func congestSpec() *scale.CongestSpec {
	return &scale.CongestSpec{
		Adaptive: true,
		Fabric:   fabric.CongestOptions{PauseScale: 0.002, PFCThreshold: 8 << 20},
		Detect:   grayfail.Options{DegradeBelow: 0.05, RecoverAbove: 0.5},
	}
}

// variant is one seeded scale-tier op: the sweep seed (synthetic data,
// engine, ECMP flow keys) and the edge its fault targets.
type variant struct {
	seed int64
	edge topology.EdgeID
}

// scaleTier runs one scale.Run sweep per op over a topology built at set-up.
// congest-512 storms the spine port the variant's routes cross and runs the
// adaptive multi-iteration sweep; sweep-1024 kills a ring hop inside one
// simulation domain permanently at t=0 under the scale tier's resilience.
type scaleTier struct {
	cfg      config
	congest  bool
	topo     *topology.Topo
	variants []variant
	reg      *metrics.Registry
}

func newCongest(cfg config) *scaleTier { return &scaleTier{cfg: cfg, congest: true} }
func newSweep(cfg config) *scaleTier   { return &scaleTier{cfg: cfg} }

func (w *scaleTier) topoName() string {
	switch {
	case w.congest && w.cfg.small:
		return congestTopoSmall
	case w.congest:
		return congestTopo
	case w.cfg.small:
		return sweepTopoSmall
	}
	return sweepTopo
}

func (w *scaleTier) spec() string {
	return fmt.Sprintf("%s congest=%v variants=%v", w.topoName(), w.congest, w.variants)
}

func (w *scaleTier) setup(t *tracer) error {
	var err error
	t.span("setup.topo", func() {
		var spec topology.Spec
		if spec, err = topology.ParseTopo(w.topoName()); err == nil {
			w.topo, err = spec.Build()
		}
	})
	if err != nil {
		return err
	}
	w.variants = make([]variant, scaleBlock)
	for k := range w.variants {
		v := variant{seed: subSeed(w.cfg.seed, k)}
		if w.congest {
			t.span("setup.probe", func() {
				v.edge, err = scale.ProbeSpineEdge(scale.Options{Topo: w.topo, Seed: v.seed, Congest: congestSpec()})
			})
		} else {
			t.span("setup.probe", func() { v.edge, err = w.ringHop(v.seed) })
		}
		if err != nil {
			return err
		}
		w.variants[k] = v
	}
	return nil
}

// ringHop picks a seed-chosen rank r and returns the first edge of its
// route to rank r+1 on the same server, checking that the edge lies inside
// r's simulation domain. Ranks are numbered server-major, so r+1 is r's
// ring successor and the sweep is guaranteed to cross the edge.
func (w *scaleTier) ringHop(seed int64) (topology.EdgeID, error) {
	g := w.topo.Graph
	part, err := w.topo.Partition()
	if err != nil {
		return 0, err
	}
	ranks := len(g.GPUs())
	rng := seededRand(seed, 2)
	for try := 0; try < 64; try++ {
		r := rng.Intn(ranks - 1)
		a, _ := g.GPUByRank(r)
		b, _ := g.GPUByRank(r + 1)
		if g.Node(a).Server != g.Node(b).Server {
			continue
		}
		path := g.ShortestPath(a, b)
		if len(path) < 2 {
			continue
		}
		ge, ok := g.EdgeBetween(path[0], path[1])
		if ok && part.EdgeCross[ge] < 0 && part.EdgeDomain[ge] == part.NodeDomain[a] {
			return ge, nil
		}
	}
	return 0, fmt.Errorf("sweep: no domain-local ring hop found on %s", w.topoName())
}

func (w *scaleTier) setMetrics(reg *metrics.Registry) { w.reg = reg }

func (w *scaleTier) run(i int, t *tracer) (opResult, error) {
	return w.runAt(i, benchWorkers, t)
}

func (w *scaleTier) runAt(i, workers int, t *tracer) (opResult, error) {
	v := w.variants[i%len(w.variants)]
	opts := scale.Options{Topo: w.topo, Workers: workers, Seed: v.seed, Metrics: w.reg}
	if w.congest {
		opts.Iterations = congestIters
		opts.Congest = congestSpec()
		opts.Chaos = &chaos.Spec{Seed: v.seed, Faults: []chaos.Fault{
			{Kind: chaos.PFCStorm, Start: 0, Edge: v.edge, Rank: -1, Pod: -1}, // permanent
		}}
	} else {
		opts.Chaos = &chaos.Spec{Seed: v.seed, Faults: []chaos.Fault{
			{Kind: chaos.LinkDown, Start: 0, Edge: v.edge, Rank: -1}, // permanent
		}}
	}
	var res *scale.Result
	var err error
	t.span("scale.run", func() { res, err = scale.Run(opts) })
	if err != nil {
		// scale.Run checks every rank's words against the closed-form
		// reduction; a corrupt or incomplete sweep fails here.
		return opResult{}, fmt.Errorf("variant %d: %w", i%len(w.variants), err)
	}
	out := opResult{virtual: res.Elapsed, events: res.Fired, checksum: res.Checksum}
	out.add("sim.windows", float64(res.Windows))
	out.add("sim.busy_over_wall", res.Speedup)
	for _, st := range res.Stats {
		out.add("sim.lookahead_stalls", float64(st.Stalls))
		out.peak("sim.max_queue_depth", float64(st.MaxQueueDepth))
	}
	t.span(spanCheck, func() {
		if w.congest {
			err = w.foldCongest(res, &out)
		} else {
			err = w.foldRecovery(res, &out)
		}
	})
	return out, err
}

// foldCongest checks that the storm took effect and was contained, and
// reports the congestion plane's counters.
func (w *scaleTier) foldCongest(res *scale.Result, out *opResult) error {
	cg := res.Congest
	if cg == nil || len(res.IterDurations) != congestIters {
		return fmt.Errorf("congest: %d of %d iterations reported", len(res.IterDurations), congestIters)
	}
	if cg.Degraded == 0 || cg.MaxQueueBytes == 0 {
		return fmt.Errorf("congest: the storm never took effect: %+v", *cg)
	}
	for _, d := range res.IterDurations[congestIters/2:] {
		out.tail = max(out.tail, d)
	}
	out.add("grayfail.degraded", float64(cg.Degraded))
	out.add("grayfail.restored", float64(cg.Restored))
	out.add("grayfail.condemned", float64(cg.Condemned))
	out.add("scale.path_reroutes", float64(cg.PathReroutes))
	out.add("scale.adaptations", float64(cg.Adaptations))
	out.add("scale.time_to_adapt_virtual_ms", ms(cg.TimeToAdaptMax))
	out.add("fabric.pause_frames", float64(cg.PauseFrames))
	out.peak("fabric.max_queue_bytes", float64(cg.MaxQueueBytes))
	return nil
}

// foldRecovery checks that the killed hop was detected and recovered
// inside its domain, and reports the recovery counters.
func (w *scaleTier) foldRecovery(res *scale.Result, out *opResult) error {
	rec := res.Recovery
	if rec == nil || rec.Injected.ScaleEvents == 0 || rec.DomainLocal == 0 {
		return fmt.Errorf("sweep: the ring-hop fault never fired or was never recovered: %+v", rec)
	}
	if rec.Boundary != 0 {
		return fmt.Errorf("sweep: a domain-local fault escalated to boundary recovery: %+v", *rec)
	}
	out.ttr = rec.TimeToRecoverMax
	out.add("chaos.injected", float64(rec.Injected.ScaleEvents))
	out.add("scale.recoveries_domain_local", float64(rec.DomainLocal))
	out.add("scale.recoveries_boundary", float64(rec.Boundary))
	out.add("scale.retransmits", float64(rec.Retransmits))
	out.add("scale.reroutes", float64(rec.Reroutes))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
