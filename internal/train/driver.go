package train

import (
	"fmt"
	"sort"
	"time"

	"adapcc/internal/backend"
	"adapcc/internal/core"
	"adapcc/internal/health"
	"adapcc/internal/relay"
	"adapcc/internal/strategy"
	"adapcc/internal/synth"
)

// Driver advances one iteration's communication given each worker's
// gradient-ready offsets.
type Driver interface {
	Name() string
	// Alive returns the worker ranks still in the training group.
	Alive() []int
	// Begin schedules the iteration: readyAt maps each alive rank to its
	// compute-completion offset from now. done fires when communication
	// completes, with the pure execution time (excluding straggler
	// waiting) it consumed.
	Begin(readyAt map[int]time.Duration, done func(execTime time.Duration))
}

// WaitAllDriver models existing libraries: the collective starts only once
// every worker is ready (paper Sec. II-C), then runs the backend's graph.
type WaitAllDriver struct {
	env     *backend.Env
	planner Planner
	prim    strategy.Primitive
	bytes   int64
	world   []int
}

// NewWaitAllDriver builds a wait-for-all driver.
func NewWaitAllDriver(env *backend.Env, planner Planner, prim strategy.Primitive, bytes int64, world []int) *WaitAllDriver {
	return &WaitAllDriver{env: env, planner: planner, prim: prim, bytes: bytes, world: append([]int(nil), world...)}
}

// Name implements Driver.
func (d *WaitAllDriver) Name() string { return d.planner.Name() }

// Alive implements Driver.
func (d *WaitAllDriver) Alive() []int { return append([]int(nil), d.world...) }

// Begin implements Driver.
func (d *WaitAllDriver) Begin(readyAt map[int]time.Duration, done func(execTime time.Duration)) {
	var maxReady time.Duration
	for _, r := range d.world {
		at, ok := readyAt[r]
		if !ok {
			panic(fmt.Sprintf("train: worker %d never becomes ready under a wait-all backend", r))
		}
		if at > maxReady {
			maxReady = at
		}
	}
	eng := d.env.Engine
	eng.After(maxReady, func() {
		live := synth.NewLiveCosts(d.env.Fabric)
		exec, err := d.planner.CommTime(live, d.prim, d.bytes, d.world)
		if err != nil {
			panic(fmt.Sprintf("train: %s comm time: %v", d.planner.Name(), err))
		}
		eng.After(exec, func() { done(exec) })
	})
}

// AdaptiveDriver runs the real relay coordinator with analytically priced
// communication callbacks: all decision logic (5 ms cycles, break-even ski
// rental, relay selection, fault exclusion) is the production code path.
type AdaptiveDriver struct {
	a    *core.AdapCC
	co   *relay.Coordinator
	prim strategy.Primitive
	// tensor bytes per iteration
	bytes int64

	execTotal time.Duration
	// DropLateTensors switches to the 'Relay Async' arm of Fig. 19b:
	// phase 2 is skipped entirely and late gradients are discarded.
	DropLateTensors bool
	// lastQuality records the fraction of workers whose gradients were
	// aggregated in the last iteration (1.0 with phase 2).
	lastQuality float64

	// onFault is the user's fault observer, invoked after the controller's
	// health monitor (when installed) registered the ranks.
	onFault func([]int)

	// per-iteration timing for partial-join accounting
	iterStart   time.Duration
	readyAt     map[int]time.Duration
	phase1Start time.Duration
	phase1End   time.Duration
}

// NewAdaptiveDriver builds the AdapCC adaptive driver.
func NewAdaptiveDriver(a *core.AdapCC, world []int, prim strategy.Primitive, bytes int64, policy relay.Policy, onFault func([]int)) (*AdaptiveDriver, error) {
	if prim != strategy.AllReduce {
		return nil, fmt.Errorf("train: adaptive relay control drives AllReduce (got %v)", prim)
	}
	d := &AdaptiveDriver{a: a, prim: prim, bytes: bytes, lastQuality: 1, onFault: onFault}
	est := &core.PredictEstimator{A: a, TensorBytes: bytes, World: len(world)}
	co, err := relay.NewCoordinator(relay.Config{
		Engine:    a.Env().Engine,
		World:     world,
		Policy:    policy,
		Estimator: est,
		Callbacks: relay.Callbacks{
			StartFull:   d.startFull,
			StartPhase1: d.startPhase1,
			StartPhase2: d.startPhase2,
			OnFault:     d.faulted,
		},
	})
	if err != nil {
		return nil, err
	}
	d.co = co
	return d, nil
}

// Name implements Driver.
func (d *AdaptiveDriver) Name() string { return "AdapCC" }

// Alive implements Driver.
func (d *AdaptiveDriver) Alive() []int { return d.co.Alive() }

// Coordinator exposes relay statistics (Figs. 15, 19d).
func (d *AdaptiveDriver) Coordinator() *relay.Coordinator { return d.co }

// Quality returns the last iteration's gradient-aggregation fraction.
func (d *AdaptiveDriver) Quality() float64 { return d.lastQuality }

// Readmit implements Readmitter: a restarted worker rejoins the group from
// the next iteration, with no job restart (elastic scale-up).
func (d *AdaptiveDriver) Readmit(rank int) { d.co.Readmit(rank) }

// faulted is the coordinator's OnFault hook: hand every excluded rank to
// the health monitor (when installed) before the user's observer sees it.
func (d *AdaptiveDriver) faulted(ranks []int) {
	if m := d.a.Healer(); m != nil {
		for _, r := range ranks {
			m.WatchRank(r)
		}
	}
	if d.onFault != nil {
		d.onFault(ranks)
	}
}

// EnableHealing installs the controller's health monitor
// (core.AdapCC.EnableHealing, idempotent) over the coordinator's fault
// path: ranks excluded by T_fault or link-fault reports are watched,
// probed over the live fabric and device, and — after passing probation —
// re-admitted by the controller, with the healed edges' fresh measurements
// absorbed into the cost model, and readmitted by the coordinator into the
// next iteration. The data loader redistributes back automatically: the
// trainer recomputes per-GPU batches from Alive() every iteration.
func (d *AdaptiveDriver) EnableHealing(opts health.Options) *health.Monitor {
	return d.a.EnableHealing(core.HealOptions{
		Options: opts,
		OnHeal: func(ev health.Event) {
			if ev.Kind == health.KindRank {
				d.co.Readmit(ev.Rank)
			}
		},
	})
}

// Healer returns the controller's health monitor (nil before
// EnableHealing).
func (d *AdaptiveDriver) Healer() *health.Monitor { return d.a.Healer() }

// Begin implements Driver.
func (d *AdaptiveDriver) Begin(readyAt map[int]time.Duration, done func(execTime time.Duration)) {
	d.execTotal = 0
	d.lastQuality = 1
	eng := d.a.Env().Engine
	d.iterStart = eng.Now()
	d.readyAt = readyAt
	d.phase1Start, d.phase1End = 0, 0
	d.co.BeginIteration(func() { done(d.execTotal) })
	ranks := make([]int, 0, len(readyAt))
	for r := range readyAt {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		r := r
		eng.After(readyAt[r], func() { d.co.WorkerReady(r) })
	}
}

func (d *AdaptiveDriver) startFull(ranks []int, cdone func()) {
	d.chargeComm(func(live *synth.Costs) (time.Duration, error) {
		return AdapCCPlanner(d.a).CommTime(live, d.prim, d.bytes, ranks)
	}, cdone)
}

func (d *AdaptiveDriver) startPhase1(ready, relays []int, cdone func()) {
	d.phase1Start = d.a.Env().Engine.Now()
	d.chargeComm(func(live *synth.Costs) (time.Duration, error) {
		t, err := PartialCommTime(d.a, live, d.prim, d.bytes, ready, relays)
		d.phase1End = d.phase1Start + t
		return t, err
	}, cdone)
	if d.DropLateTensors {
		world := len(ready) + len(relays)
		d.lastQuality = float64(len(ready)) / float64(world)
	}
}

// lateFraction estimates how much of the late workers' data missed the
// phase-1 aggregation (paper Sec. IV-C: chunks becoming ready during
// phase 1 join the ongoing aggregation at matching buffer offsets; only
// the rest needs phase-2 catch-up).
func (d *AdaptiveDriver) lateFraction(late []int) float64 {
	dur := (d.phase1End - d.phase1Start).Seconds()
	if dur <= 0 {
		return 1
	}
	maxFrac := 0.0
	for _, l := range late {
		ready := d.iterStart + d.readyAt[l]
		frac := 1.0
		if ready < d.phase1End {
			frac = (ready - d.phase1Start).Seconds() / dur
			if frac < 0.05 {
				frac = 0.05
			}
		}
		if frac > maxFrac {
			maxFrac = frac
		}
	}
	return maxFrac
}

func (d *AdaptiveDriver) startPhase2(participants, late []int, cdone func()) {
	if d.DropLateTensors {
		// Relay Async: discard late tensors — no phase 2 cost, but the
		// gradient quality drops (Fig. 19b).
		cdone()
		return
	}
	frac := d.lateFraction(late)
	d.chargeComm(func(live *synth.Costs) (time.Duration, error) {
		return CatchupCommTime(d.a, live, d.bytes, participants, late, frac)
	}, cdone)
}

func (d *AdaptiveDriver) chargeComm(price func(*synth.Costs) (time.Duration, error), cdone func()) {
	live := synth.NewLiveCosts(d.a.Env().Fabric)
	exec, err := price(live)
	if err != nil {
		panic(fmt.Sprintf("train: adaptive comm pricing: %v", err))
	}
	d.execTotal += exec
	d.a.Env().Engine.After(exec, cdone)
}
