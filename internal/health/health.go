// Package health closes the fault loop opened by the resilient controller:
// where RunResilient permanently writes a faulted link or rank off the
// synthesis topology, the health Monitor watches that excluded hardware and
// earns it back. Each watched target runs a per-target state machine on
// virtual time,
//
//	excluded ──quarantine──▶ probing ──success──▶ probation ──K successes──▶ healthy
//	    ▲                       │                     │
//	    └──────── relapse ──────┴─────── relapse ─────┘        (GiveUpAfter
//	                                                            relapses ▶ condemned)
//
// driven by lightweight background probes over the live fabric (and, for
// rank targets, a kernel-liveness launch on the device). Hysteresis keeps a
// flapping link from thrashing the synthesizer: a minimum quarantine before
// the first probe, K consecutive successful probe cycles before promotion,
// and an exponentially growing quarantine for repeat offenders. Promotion
// re-profiles just the healed edges (a reduced-size pass of the Sec. IV-B
// probe plan) so the synthesizer reclaims the capacity with fresh α–β
// values, then hands the event to the owner, which re-admits the hardware
// and drops its strategy caches.
//
// A target that keeps failing is eventually condemned (GiveUpAfter
// relapses): probing stops, the exclusion becomes permanent, and the
// simulation engine can drain. Hold/Release lets the resilient controller
// suspend promotions while a collective's fault loop is in flight, so the
// bounded-attempts termination argument keeps holding (see DESIGN.md §9).
package health

import (
	"fmt"
	"time"

	"adapcc/internal/device"
	"adapcc/internal/fabric"
	"adapcc/internal/metrics"
	"adapcc/internal/profile"
	"adapcc/internal/sim"
	"adapcc/internal/topology"
)

// State is a watched target's position in the healing state machine.
type State int

const (
	// StateExcluded: quarantined, waiting for the next probe window.
	StateExcluded State = iota
	// StateProbing: a probe cycle is in flight, no success yet this episode.
	StateProbing
	// StateProbation: at least one success, accumulating the K-streak.
	StateProbation
	// StateCondemned: GiveUpAfter relapses exhausted — written off for good.
	StateCondemned
)

func (s State) String() string {
	switch s {
	case StateExcluded:
		return "excluded"
	case StateProbing:
		return "probing"
	case StateProbation:
		return "probation"
	case StateCondemned:
		return "condemned"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Kind says what a target (or a heal event) refers to.
type Kind int

const (
	// KindLink is a node pair excluded by a link fault (both directions).
	KindLink Kind = iota
	// KindRank is a worker excluded by a stall/crash fault.
	KindRank
)

func (k Kind) String() string {
	if k == KindRank {
		return "rank"
	}
	return "link"
}

// Options tunes the healing hysteresis. Zero values take the defaults.
type Options struct {
	// Quarantine is the minimum exclusion dwell before the first probe
	// (default 5ms). Repeat offenders wait Quarantine·BackoffFactor^relapses.
	Quarantine time.Duration
	// ProbeInterval separates successive probe cycles inside probation
	// (default 1ms).
	ProbeInterval time.Duration
	// ProbationK is the consecutive-success streak required for promotion
	// (default 3).
	ProbationK int
	// ProbeBytes is the probe transfer size (default 64 KiB — small enough
	// to be invisible next to collective traffic).
	ProbeBytes int64
	// DeadlineMult × the nominal transfer time is the probe deadline
	// (default 8), floored at DeadlineFloor (default 1ms).
	DeadlineMult  float64
	DeadlineFloor time.Duration
	// GiveUpAfter condemns a target after this many relapses (failed probe
	// cycles) across the watch episode (default 6). Condemnation is what
	// lets the engine drain when hardware never comes back.
	GiveUpAfter int
	// BackoffFactor grows the quarantine per relapse (default 2), capped at
	// MaxQuarantine (default 500ms).
	BackoffFactor float64
	MaxQuarantine time.Duration
	// ReprofileCombos is the reduced (n,s) probe plan run on healed edges
	// before promotion (default {4×64KiB, 2×256KiB}).
	ReprofileCombos []profile.Combo
}

func (o Options) withDefaults() Options {
	if o.Quarantine <= 0 {
		o.Quarantine = 5 * time.Millisecond
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Millisecond
	}
	if o.ProbationK <= 0 {
		o.ProbationK = 3
	}
	if o.ProbeBytes <= 0 {
		o.ProbeBytes = 64 << 10
	}
	if o.DeadlineMult <= 0 {
		o.DeadlineMult = 8
	}
	if o.DeadlineFloor <= 0 {
		o.DeadlineFloor = time.Millisecond
	}
	if o.GiveUpAfter <= 0 {
		o.GiveUpAfter = 6
	}
	if o.BackoffFactor < 1 {
		o.BackoffFactor = 2
	}
	if o.MaxQuarantine <= 0 {
		o.MaxQuarantine = 500 * time.Millisecond
	}
	if len(o.ReprofileCombos) == 0 {
		o.ReprofileCombos = []profile.Combo{
			{Count: 4, Size: 64 << 10},
			{Count: 2, Size: 256 << 10},
		}
	}
	return o
}

// Event is one promotion (healed) or condemnation, handed to Hooks.
type Event struct {
	Kind Kind
	// From/To name the healed node pair for KindLink (From < To); -1 for
	// rank events.
	From, To topology.NodeID
	// Rank is the healed worker for KindRank; -1 for link events.
	Rank int
	// ExcludedAt is when this watch episode started, At when the event
	// fired; TimeToHeal is the difference (holds included, honestly).
	ExcludedAt sim.Time
	At         sim.Time
	TimeToHeal time.Duration
	// Probes and Relapses count this episode's probe cycles and failures.
	Probes   int
	Relapses int
	// Edges are the directed edges the target covers.
	Edges []topology.EdgeID
	// Measurements is the healed-edge re-profiling result (promotions only).
	Measurements []profile.Measurement
}

// Hooks are the monitor's outputs. OnHeal owns re-admission: it fires after
// the healed edges were re-profiled (and after any Hold released).
type Hooks struct {
	OnHeal    func(Event)
	OnCondemn func(Event)
}

type targetKey struct {
	kind Kind
	a, b topology.NodeID // normalized lo/hi pair for links
	rank int
}

type target struct {
	key        targetKey
	state      State
	edges      []topology.EdgeID
	excludedAt sim.Time
	streak     int
	relapses   int
	probes     int
	gen        uint64 // bumps on Stop/condemn to invalidate in-flight cycles
	// measurements holds the re-profiling result while a promotion waits
	// out a Hold.
	measurements []profile.Measurement
}

// Monitor watches excluded links and ranks and earns them back. It is
// single-threaded on the simulation engine, like everything else here.
type Monitor struct {
	eng   *sim.Engine
	fab   *fabric.Fabric
	g     *topology.Graph
	gpus  map[int]*device.GPU
	opts  Options
	hooks Hooks

	targets map[targetKey]*target
	// relapseHistory remembers repeat offenders across watch episodes, so a
	// link that heals and faults again starts from a longer quarantine.
	relapseHistory map[targetKey]int
	// reclaimedBps tracks the nominal bandwidth each healed key returned,
	// so a re-fault subtracts exactly what its heal added.
	reclaimedBps      map[targetKey]float64
	reclaimedTotalBps float64

	held    bool
	pending []*target // promotions matured while held

	healed    int
	condemned int
	stopped   bool

	// kernel probe scratch (contents are throwaway).
	kdst, ksrc []float32

	hm *healthMetrics // nil when metrics are disabled
	// healWorld/healClassify opt the time-to-heal histogram into labeled
	// series (see SetHealLabels); nil classify keeps the unlabeled one.
	healWorld    string
	healClassify func(Event) string
}

// New builds a monitor over a fabric and its devices. Targets arrive via
// WatchLink/WatchRank; nothing probes until then.
func New(eng *sim.Engine, fab *fabric.Fabric, gpus map[int]*device.GPU, opts Options, hooks Hooks) *Monitor {
	return &Monitor{
		eng:            eng,
		fab:            fab,
		g:              fab.Graph(),
		gpus:           gpus,
		opts:           opts.withDefaults(),
		hooks:          hooks,
		targets:        make(map[targetKey]*target),
		relapseHistory: make(map[targetKey]int),
		reclaimedBps:   make(map[targetKey]float64),
		kdst:           make([]float32, 64),
		ksrc:           make([]float32, 64),
	}
}

// Options returns the monitor's effective (defaulted) knobs.
func (m *Monitor) Options() Options { return m.opts }

// WatchLink starts (or keeps) watching an excluded node pair. Both directed
// edges between the nodes are probed. Idempotent; a condemned pair stays
// condemned.
func (m *Monitor) WatchLink(from, to topology.NodeID) {
	if m.stopped {
		return
	}
	lo, hi := from, to
	if hi < lo {
		lo, hi = hi, lo
	}
	k := targetKey{kind: KindLink, a: lo, b: hi, rank: -1}
	var edges []topology.EdgeID
	if eid, ok := m.g.EdgeBetween(lo, hi); ok {
		edges = append(edges, eid)
	}
	if eid, ok := m.g.EdgeBetween(hi, lo); ok {
		edges = append(edges, eid)
	}
	if len(edges) == 0 {
		return // no physical edges between the nodes: nothing to probe
	}
	m.watch(k, edges)
}

// WatchRank starts (or keeps) watching an excluded worker: its device gets
// a kernel-liveness probe and every adjacent link a transfer probe.
func (m *Monitor) WatchRank(rank int) {
	if m.stopped {
		return
	}
	id, ok := m.g.GPUByRank(rank)
	if !ok {
		return
	}
	k := targetKey{kind: KindRank, a: -1, b: -1, rank: rank}
	edges := append([]topology.EdgeID(nil), m.g.Out(id)...)
	edges = append(edges, m.g.In(id)...)
	m.watch(k, edges)
}

func (m *Monitor) watch(k targetKey, edges []topology.EdgeID) {
	if _, ok := m.targets[k]; ok {
		return // already watched (possibly condemned)
	}
	if prev := m.reclaimedBps[k]; prev > 0 {
		// A previously healed target faulted again: its bandwidth is no
		// longer reclaimed.
		m.reclaimedTotalBps -= prev
		delete(m.reclaimedBps, k)
		if m.hm != nil {
			m.hm.reclaimedBps.Set(m.eng.Now(), m.reclaimedTotalBps)
		}
	}
	t := &target{
		key:        k,
		state:      StateExcluded,
		edges:      edges,
		excludedAt: m.eng.Now(),
		relapses:   m.relapseHistory[k],
	}
	m.targets[k] = t
	if m.hm != nil {
		m.hm.watched.Set(m.eng.Now(), float64(m.watchedCount()))
	}
	m.scheduleWake(t)
}

func (m *Monitor) watchedCount() int {
	n := 0
	for _, t := range m.targets {
		if t.state != StateCondemned {
			n++
		}
	}
	return n
}

// quarantineFor grows the dwell exponentially with the relapse count.
func (m *Monitor) quarantineFor(relapses int) time.Duration {
	q := float64(m.opts.Quarantine)
	for i := 0; i < relapses && i < 32; i++ {
		q *= m.opts.BackoffFactor
		if q >= float64(m.opts.MaxQuarantine) {
			return m.opts.MaxQuarantine
		}
	}
	if q > float64(m.opts.MaxQuarantine) {
		q = float64(m.opts.MaxQuarantine)
	}
	return time.Duration(q)
}

func (m *Monitor) scheduleWake(t *target) {
	gen := t.gen
	m.eng.After(m.quarantineFor(t.relapses), func() {
		if m.stopped || t.gen != gen || t.state == StateCondemned {
			return
		}
		t.state = StateProbing
		m.runCycle(t, gen)
	})
}

// runCycle runs one probe pass over the target: the kernel-liveness launch
// first for rank targets (fail fast on a hung device), then each edge in
// turn, short-circuiting on the first failure.
func (m *Monitor) runCycle(t *target, gen uint64) {
	if m.stopped || t.gen != gen {
		return
	}
	t.probes++
	var stepEdge func(i int)
	finish := func(ok bool) {
		if m.stopped || t.gen != gen {
			return
		}
		if m.hm != nil {
			if ok {
				m.hm.probesOK.Inc(m.eng.Now())
			} else {
				m.hm.probesFail.Inc(m.eng.Now())
			}
		}
		if ok {
			m.cycleSucceeded(t)
		} else {
			m.cycleFailed(t)
		}
	}
	stepEdge = func(i int) {
		if m.stopped || t.gen != gen {
			return
		}
		if i >= len(t.edges) {
			finish(true)
			return
		}
		m.probeEdge(t.edges[i], func(ok bool) {
			if !ok {
				finish(false)
				return
			}
			stepEdge(i + 1)
		})
	}
	if t.key.kind == KindRank {
		m.probeKernel(t.key.rank, func(ok bool) {
			if m.stopped || t.gen != gen {
				return
			}
			if !ok {
				finish(false)
				return
			}
			stepEdge(0)
		})
		return
	}
	stepEdge(0)
}

func (m *Monitor) cycleSucceeded(t *target) {
	t.streak++
	t.state = StateProbation
	if t.streak >= m.opts.ProbationK {
		m.promote(t)
		return
	}
	gen := t.gen
	m.eng.After(m.opts.ProbeInterval, func() {
		if m.stopped || t.gen != gen {
			return
		}
		m.runCycle(t, gen)
	})
}

func (m *Monitor) cycleFailed(t *target) {
	t.streak = 0
	t.relapses++
	m.relapseHistory[t.key] = t.relapses
	if t.relapses >= m.opts.GiveUpAfter {
		m.condemn(t)
		return
	}
	t.state = StateExcluded
	m.scheduleWake(t)
}

func (m *Monitor) condemn(t *target) {
	t.state = StateCondemned
	t.gen++
	m.condemned++
	if m.hm != nil {
		now := m.eng.Now()
		m.hm.condemnedTotal.Inc(now)
		m.hm.watched.Set(now, float64(m.watchedCount()))
	}
	if m.hooks.OnCondemn != nil {
		m.hooks.OnCondemn(m.event(t, nil))
	}
}

// promote starts the healed-edge re-profiling pass; the heal event fires
// when the measurements are in (and any Hold has been released).
func (m *Monitor) promote(t *target) {
	gen := t.gen
	prof := profile.New(m.fab, profile.Options{
		NVLinkCombos:  m.opts.ReprofileCombos,
		NetworkCombos: m.opts.ReprofileCombos,
	})
	prof.ProbeEdges(t.edges, func(ms []profile.Measurement) {
		if m.stopped || t.gen != gen {
			return
		}
		t.measurements = ms
		if m.held {
			m.pending = append(m.pending, t)
			return
		}
		m.finishPromotion(t)
	})
}

func (m *Monitor) finishPromotion(t *target) {
	delete(m.targets, t.key)
	delete(m.relapseHistory, t.key) // healed: offender history is forgiven
	m.healed++
	now := m.eng.Now()
	var bps float64
	for _, eid := range t.edges {
		bps += m.g.Edge(eid).BandwidthBps
	}
	m.reclaimedBps[t.key] = bps
	m.reclaimedTotalBps += bps
	ev := m.event(t, t.measurements)
	if m.hm != nil {
		m.hm.healedTotal.Inc(now)
		if m.healClassify != nil {
			m.hm.reg.Histogram("adapcc_time_to_heal_seconds",
				"exclusion-to-re-admission latency per healed target",
				metrics.DurationBuckets,
				"world", m.healWorld, "locality", m.healClassify(ev)).
				ObserveDuration(now, ev.TimeToHeal)
		} else {
			m.hm.timeToHeal.ObserveDuration(now, ev.TimeToHeal)
		}
		m.hm.reclaimedBps.Set(now, m.reclaimedTotalBps)
		m.hm.watched.Set(now, float64(m.watchedCount()))
	}
	if m.hooks.OnHeal != nil {
		m.hooks.OnHeal(ev)
	}
}

func (m *Monitor) event(t *target, ms []profile.Measurement) Event {
	now := m.eng.Now()
	ev := Event{
		Kind:         t.key.kind,
		From:         t.key.a,
		To:           t.key.b,
		Rank:         t.key.rank,
		ExcludedAt:   t.excludedAt,
		At:           now,
		TimeToHeal:   now - t.excludedAt,
		Probes:       t.probes,
		Relapses:     t.relapses,
		Edges:        append([]topology.EdgeID(nil), t.edges...),
		Measurements: ms,
	}
	return ev
}

// Hold suspends promotions: targets finishing probation park until Release.
// The resilient controller holds the monitor for the duration of a
// RunResilient call, so no exclusion can be undone between attempts and the
// every-attempt-shrinks-the-topology termination argument stays intact.
func (m *Monitor) Hold() { m.held = true }

// Release lifts Hold and fires any promotions that matured meanwhile, in
// arrival order.
func (m *Monitor) Release() {
	if !m.held {
		return
	}
	m.held = false
	pending := m.pending
	m.pending = nil
	for _, t := range pending {
		if m.stopped || t.state == StateCondemned {
			continue
		}
		m.finishPromotion(t)
	}
}

// Held reports whether promotions are currently suspended.
func (m *Monitor) Held() bool { return m.held }

// probeEdge sends one probe transfer and reports whether it arrived within
// the deadline. The deadline scales off the edge's nominal α–β cost; on
// expiry the transfer is aborted (generation-checked: a transfer that
// delivered in the same instant wins).
func (m *Monitor) probeEdge(eid topology.EdgeID, then func(ok bool)) {
	e := m.g.Edge(eid)
	nominal := time.Duration(0)
	if e.BandwidthBps > 0 {
		nominal = time.Duration(float64(m.opts.ProbeBytes) / e.BandwidthBps * 1e9)
	}
	deadline := time.Duration(m.opts.DeadlineMult * float64(e.Alpha+nominal))
	if deadline < m.opts.DeadlineFloor {
		deadline = m.opts.DeadlineFloor
	}
	done := false
	var deadlineEv *sim.Event
	tr := m.fab.Send(eid, m.opts.ProbeBytes, nil, func(any) {
		if done {
			return
		}
		done = true
		if deadlineEv != nil {
			m.eng.Cancel(deadlineEv)
		}
		then(true)
	})
	gen := tr.Gen()
	deadlineEv = m.eng.After(deadline, func() {
		if done {
			return
		}
		if m.fab.Abort(tr, gen) {
			done = true
			then(false)
			return
		}
		// Abort refused: the transfer delivered in this same instant and
		// the arrival callback is about to fire — let it win.
	})
}

// probeKernel launches a tiny reduce on a fresh stream of the rank's device
// and reports whether it retired within the deadline. A hung or crashed
// device keeps the kernel for the stall duration; the late retirement is
// ignored (kernels cannot be cancelled). A fresh stream per probe keeps a
// stuck earlier probe from serialising behind this one.
func (m *Monitor) probeKernel(rank int, then func(ok bool)) {
	gpu := m.gpus[rank]
	if gpu == nil {
		then(true)
		return
	}
	deadline := m.opts.DeadlineFloor +
		time.Duration(m.opts.DeadlineMult*float64(device.KernelLaunchLatency))
	done := false
	var deadlineEv *sim.Event
	st := gpu.NewStream()
	st.LaunchReduce(m.kdst, m.ksrc, func() {
		if done {
			return
		}
		done = true
		if deadlineEv != nil {
			m.eng.Cancel(deadlineEv)
		}
		then(true)
	})
	deadlineEv = m.eng.After(deadline, func() {
		if done {
			return
		}
		done = true
		then(false)
	})
}

// LinkState reports the state of a watched node pair.
func (m *Monitor) LinkState(from, to topology.NodeID) (State, bool) {
	lo, hi := from, to
	if hi < lo {
		lo, hi = hi, lo
	}
	t, ok := m.targets[targetKey{kind: KindLink, a: lo, b: hi, rank: -1}]
	if !ok {
		return 0, false
	}
	return t.state, true
}

// Watched returns how many targets are under active watch (condemned ones
// excluded).
func (m *Monitor) Watched() int { return m.watchedCount() }

// Healed returns how many targets have been promoted and re-admitted.
func (m *Monitor) Healed() int { return m.healed }

// Condemned returns how many targets were written off permanently.
func (m *Monitor) Condemned() int { return m.condemned }

// ReclaimedBandwidthBps returns the nominal bandwidth currently reclaimed
// by heals (healed minus re-faulted).
func (m *Monitor) ReclaimedBandwidthBps() float64 { return m.reclaimedTotalBps }

// Stop retires the monitor: in-flight probe cycles become no-ops and no new
// wakes fire. Watched targets are forgotten.
func (m *Monitor) Stop() {
	m.stopped = true
	for _, t := range m.targets {
		t.gen++
	}
	m.targets = make(map[targetKey]*target)
	m.pending = nil
}

// healthMetrics is the pre-resolved instrument bundle (see SetMetrics).
type healthMetrics struct {
	reg            *metrics.Registry
	probesOK       *metrics.Counter
	probesFail     *metrics.Counter
	healedTotal    *metrics.Counter
	condemnedTotal *metrics.Counter
	timeToHeal     *metrics.Histogram
	reclaimedBps   *metrics.Gauge
	watched        *metrics.Gauge
}

// SetHealLabels opts the time-to-heal histogram into labeled series: each
// promotion is observed as adapcc_time_to_heal_seconds{world, locality}
// instead of the unlabeled aggregate, with the locality produced by
// classify (the resilient controller classifies by server geometry).
// Inert until SetMetrics installs a registry.
func (m *Monitor) SetHealLabels(world string, classify func(Event) string) {
	m.healWorld, m.healClassify = world, classify
}

// SetMetrics installs (or, with nil, removes) a metrics registry: probe
// outcomes, heals/condemnations, the time-to-heal histogram and the
// reclaimed-bandwidth gauge. Inert when unset, like every other subsystem.
func (m *Monitor) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		m.hm = nil
		return
	}
	m.hm = &healthMetrics{
		reg: reg,
		probesOK: reg.Counter("adapcc_health_probes_total",
			"health probe cycles by result", "result", "ok"),
		probesFail: reg.Counter("adapcc_health_probes_total",
			"health probe cycles by result", "result", "fail"),
		healedTotal: reg.Counter("adapcc_health_healed_total",
			"targets promoted to healthy and re-admitted"),
		condemnedTotal: reg.Counter("adapcc_health_condemned_total",
			"targets written off after exhausting GiveUpAfter relapses"),
		timeToHeal: reg.Histogram("adapcc_time_to_heal_seconds",
			"exclusion-to-re-admission latency per healed target",
			metrics.DurationBuckets),
		reclaimedBps: reg.Gauge("adapcc_health_reclaimed_bandwidth_bps",
			"nominal bandwidth of currently re-admitted hardware"),
		watched: reg.Gauge("adapcc_health_watched",
			"targets under active watch"),
	}
}
