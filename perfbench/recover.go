package main

import (
	"fmt"
	"time"

	"adapcc/internal/backend"
	"adapcc/internal/chaos"
	"adapcc/internal/cluster"
	"adapcc/internal/collective"
	"adapcc/internal/core"
	"adapcc/internal/metrics"
	"adapcc/internal/payload"
	"adapcc/internal/strategy"
	"adapcc/internal/topology"
)

const (
	// recoverBytes is the phantom AllReduce each cycle runs.
	recoverBytes = 4 << 20
	// The fault window: the hop dies shortly after the collective starts
	// and comes back long after recovery finished.
	recoverFaultAt  = 20 * time.Microsecond
	recoverFaultDur = 20 * time.Millisecond
)

// recoverDetect keeps detection latencies small so one cycle's virtual
// timeline stays under a tenth of a second.
var recoverDetect = collective.Recovery{
	DeadlineMult:  2,
	DeadlineFloor: 200 * time.Microsecond,
	MaxRetries:    3,
	Backoff:       100 * time.Microsecond,
	StallTimeout:  50 * time.Millisecond,
}

// recoverCycles runs one fault→recover cycle per op: a windowed chaos link-down
// on a seed-chosen hop of the current strategy, RunResilient detecting it,
// excluding the link and patching (or re-synthesizing) under ir.Verify,
// the phantom checksums checked over the survivors, then ReadmitLink.
// Every op kills a different hop, so every cycle pays a fresh repair
// instead of hitting the strategy cache.
type recoverCycles struct {
	cfg   config
	env   *backend.Env
	a     *core.AdapCC
	ranks []int
	// hops are the strategy's same-server hops, in seeded order. Faults on
	// them are domain-local, the incremental-repair path.
	hops  [][2]topology.NodeID
	reg   *metrics.Registry
	wrong bool
}

func newRecover(cfg config) *recoverCycles { return &recoverCycles{cfg: cfg, wrong: cfg.wrongExpect} }

func (w *recoverCycles) spec() string {
	return fmt.Sprintf("recover-256 small=%v bytes=%d hops=%v", w.cfg.small, recoverBytes, w.hops)
}

func (w *recoverCycles) setup(t *tracer) error {
	var c *topology.Cluster
	var err error
	t.span("setup.topo", func() {
		if w.cfg.small {
			c, err = cluster.Homogeneous(topology.TransportRDMA, 4, 4)
		} else {
			c, err = cluster.Homogeneous(topology.TransportRDMA, 32, 8)
		}
	})
	if err != nil {
		return err
	}
	if t.span("setup.env", func() { w.env, err = backend.NewEnv(c, w.cfg.seed) }); err != nil {
		return err
	}
	if t.span("setup.detect", func() { w.a, err = core.New(w.env, core.WithVerify()) }); err != nil {
		return err
	}
	t.span("setup.profile", func() {
		w.a.Setup(nil)
		w.env.Engine.Run()
	})
	w.ranks = w.env.AllRanks()
	t.span("setup.strategy", func() { w.hops, err = w.baseStrategy() })
	if err != nil {
		return err
	}
	if len(w.hops) == 0 {
		return fmt.Errorf("recover: the strategy uses no same-server hop")
	}
	rng := seededRand(w.cfg.seed, 1)
	rng.Shuffle(len(w.hops), func(i, j int) { w.hops[i], w.hops[j] = w.hops[j], w.hops[i] })
	return nil
}

// baseStrategy synthesizes (and caches) the fault-free strategy, so the
// first cycle does not pay the full search, and returns its distinct
// same-server hops that have a link in each direction.
func (w *recoverCycles) baseStrategy() ([][2]topology.NodeID, error) {
	res, err := w.a.Strategy(strategy.AllReduce, recoverBytes, w.ranks, nil, -1)
	if err != nil {
		return nil, err
	}
	g := w.env.Graph
	seen := map[[2]topology.NodeID]bool{}
	var hops [][2]topology.NodeID
	for _, sub := range res.Strategy.SubCollectives {
		for _, f := range sub.Flows {
			for h := 0; h+1 < len(f.Path); h++ {
				x, y := f.Path[h], f.Path[h+1]
				if x > y {
					x, y = y, x
				}
				pair := [2]topology.NodeID{x, y}
				if seen[pair] || g.Node(x).Server != g.Node(y).Server {
					continue
				}
				_, ok1 := g.EdgeBetween(x, y)
				_, ok2 := g.EdgeBetween(y, x)
				if ok1 && ok2 {
					seen[pair] = true
					hops = append(hops, pair)
				}
			}
		}
	}
	return hops, nil
}

func (w *recoverCycles) setMetrics(reg *metrics.Registry) {
	w.reg = reg
	w.a.SetMetrics(reg)
}

func (w *recoverCycles) run(i int, t *tracer) (opResult, error) {
	hop := w.hops[i%len(w.hops)]
	g, eng := w.env.Graph, w.env.Engine
	e1, _ := g.EdgeBetween(hop[0], hop[1])
	e2, _ := g.EdgeBetween(hop[1], hop[0])
	spec := chaos.Spec{Seed: subSeed(w.cfg.seed, i), Faults: []chaos.Fault{
		{Kind: chaos.LinkDown, Start: recoverFaultAt, Dur: recoverFaultDur, Edge: e1, Rank: -1},
		{Kind: chaos.LinkDown, Start: recoverFaultAt, Dur: recoverFaultDur, Edge: e2, Rank: -1},
	}}
	ch := chaos.New(eng, w.env.Fabric, w.env.GPUs, spec)
	ch.SetMetrics(w.reg)
	var err error
	if t.span("chaos.arm", func() { err = ch.Arm() }); err != nil {
		return opResult{}, err
	}

	var rr core.ResilientResult
	var rerr error
	done := false
	fired := eng.Fired()
	t.span("core.submit", func() {
		err = w.a.RunResilient(backend.Request{
			Primitive: strategy.AllReduce, Bytes: recoverBytes, Root: -1, Mode: payload.Phantom,
		}, func(r core.ResilientResult, err error) { rr, rerr, done = r, err, true },
			core.WithRecovery(recoverDetect))
	})
	if err != nil {
		return opResult{}, err
	}
	t.span("sim.drain", func() { eng.Run() })
	t.span("core.readmit", func() { w.a.ReadmitLink(hop[0], hop[1]) })

	res := opResult{
		virtual: rr.Elapsed,
		events:  eng.Fired() - fired,
		bytes:   recoverBytes,
		ttr:     rr.TimeToRecover(),
	}
	injected := ch.Counters().ScaleEvents
	res.add("chaos.injected", float64(injected))
	res.add("core.attempts", float64(rr.Attempts))
	t.span(spanCheck, func() {
		switch {
		case !done:
			err = fmt.Errorf("cycle %d: RunResilient never completed", i)
		case rerr != nil:
			err = fmt.Errorf("cycle %d: %w", i, rerr)
		case injected == 0 || len(rr.Events) == 0:
			err = fmt.Errorf("cycle %d: the fault on %v never fired (injected %d, recoveries %d)", i, hop, injected, len(rr.Events))
		case len(rr.Survivors) < 2:
			err = fmt.Errorf("cycle %d: %d survivors", i, len(rr.Survivors))
		default:
			res.checksum, err = w.check(i, rr)
		}
	})
	return res, err
}

// check verifies every survivor's phantom checksum: each must hold the
// sum of exactly the survivors' contributions.
func (w *recoverCycles) check(i int, rr core.ResilientResult) (uint64, error) {
	want := payload.PhantomChecksum(rr.Survivors, 0, recoverBytes/4)
	if w.wrong {
		w.wrong = false
		want ^= 1
	}
	for _, r := range rr.Survivors {
		p := rr.Result.Payloads[r]
		if p == nil {
			return 0, fmt.Errorf("cycle %d: survivor %d has no output", i, r)
		}
		if got := p.Checksum(); got != want {
			return 0, fmt.Errorf("cycle %d: survivor %d checksum %#x, want %#x", i, r, got, want)
		}
	}
	return want ^ uint64(len(rr.Survivors))<<48 ^ uint64(rr.Attempts)<<56, nil
}
