// Fault-aware execution: the Fig. 19c reconstruction path driven by
// chunk-granularity fault detections instead of iteration-boundary worker
// deaths. RunResilient executes a collective with the executor's Recovery
// machinery armed; on an unrecoverable link or rank fault the controller
// excludes it, charges the reconstruction overhead (strategy re-solve +
// transmission-context set-up — profiling is skipped, because probing a
// fabric with dead links would itself hang on them), re-synthesizes over
// the surviving topology, and re-runs. The synthesis ladder degrades
// gracefully: full candidate search, then the restricted fast search, then
// a shortest-path flat ring (synth.DegradedRing), before giving up.
package core

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"adapcc/internal/backend"
	"adapcc/internal/collective"
	"adapcc/internal/synth"
	"adapcc/internal/topology"
)

// DefaultMaxAttempts bounds RunResilient's execution attempts. Every failed
// attempt permanently excludes a link or a rank, so the loop terminates
// regardless; the cap is a safety valve against pathological schedules.
const DefaultMaxAttempts = 8

// ResilientOptions is the resolved configuration of RunResilient. Callers
// construct it through the With* resilient options; the struct stays
// exported so the resolved configuration can be inspected.
type ResilientOptions struct {
	// Recovery sets the detection knobs (deadline multiple, retry budget,
	// stall timeout). Its OnFault is owned by RunResilient and must be
	// nil. Zero values take the collective package defaults.
	Recovery collective.Recovery
	// MaxAttempts bounds execution attempts (default DefaultMaxAttempts).
	MaxAttempts int
	// Heal, when non-nil, opts into elastic healing (heal.go): every
	// exclusion this run makes is watched by a background health monitor
	// and re-admitted once it passes probation. The first RunResilient
	// with Heal set installs the monitor; its knobs win over later calls.
	Heal *HealOptions
}

// ResilientOption configures one RunResilient call, in the package-wide
// With* functional-option style.
type ResilientOption func(*ResilientOptions)

// WithRecovery sets the fault-detection knobs (deadline multiple, retry
// budget, stall timeout). Its OnFault is owned by RunResilient and must
// be nil.
func WithRecovery(rec collective.Recovery) ResilientOption {
	return func(o *ResilientOptions) { o.Recovery = rec }
}

// WithMaxAttempts bounds execution attempts (default DefaultMaxAttempts).
func WithMaxAttempts(n int) ResilientOption {
	return func(o *ResilientOptions) { o.MaxAttempts = n }
}

// WithHeal opts into elastic healing: every exclusion this run makes is
// watched by the background health monitor and re-admitted once it passes
// probation.
func WithHeal(h HealOptions) ResilientOption {
	return func(o *ResilientOptions) { o.Heal = &h }
}

// Fault-locality classes (RecoveryEvent.Locality). The classification
// mirrors the scale path's domain decomposition, where every server is one
// simulation domain: a fault whose blast radius stays inside one server can
// be repaired by patching that server's sub-collective alone, while a fault
// on the cross-server fabric forces the global degradation ladder.
const (
	LocalityDomainLocal = "domain_local"
	LocalityBoundary    = "boundary"
)

// RecoveryEvent records one detect→exclude→re-synthesize cycle.
type RecoveryEvent struct {
	// Attempt is the (0-based) attempt that faulted.
	Attempt int
	// Report is the executor's fault declaration.
	Report collective.FaultReport
	// ExcludedPair is the link written off ([2]{-1,-1} for rank faults).
	ExcludedPair [2]topology.NodeID
	// ExcludedRanks are the ranks dropped in this cycle: the implicated
	// rank and/or ranks left unreachable by the link exclusion.
	ExcludedRanks []int
	// Ladder is the synthesis rung the retry used: "incremental", "full",
	// "fast" or "degraded-ring".
	Ladder string
	// Locality classifies the fault: LocalityDomainLocal for faults
	// confined to one server's domain, LocalityBoundary for faults on the
	// cross-server fabric.
	Locality string
	// DetectLatency is fault declaration minus attempt start.
	DetectLatency time.Duration
	// Overhead is the reconstruction charge before the retry started
	// (strategy re-solve + context set-up).
	Overhead time.Duration
}

// ResilientResult is the outcome of a RunResilient call.
type ResilientResult struct {
	// Result is the completed collective over the survivors.
	Result collective.Result
	// Survivors are the ranks that participated in the successful attempt.
	Survivors []int
	// Attempts is how many executions ran (1 = no fault).
	Attempts int
	// Events are the recovery cycles, in order.
	Events []RecoveryEvent
	// Elapsed is start-to-completion virtual time, recoveries included.
	Elapsed time.Duration
}

// TimeToRecover sums detection latency + reconstruction overhead across all
// recovery cycles: the total virtual time the fault path cost this
// collective compared to a fault-free run of the final strategy.
func (r *ResilientResult) TimeToRecover() time.Duration {
	var t time.Duration
	for _, ev := range r.Events {
		t += ev.DetectLatency + ev.Overhead
	}
	return t
}

// noteDelta records a single-link change about to be applied: the cache
// prefix of the epoch being left behind plus the delta itself, so the next
// cache miss can patch forward from that epoch's entries (patchFromPrevious)
// instead of re-searching. Must run before the mutation that moves the
// fingerprint. Successive single-link changes chain — each patch starts
// from the strategy the previous one produced.
func (a *AdapCC) noteDelta(k synth.DeltaKind, from, to topology.NodeID) {
	a.prevPrefix = a.prefix()
	a.lastDelta = &synth.Delta{Kind: k, Pair: [2]topology.NodeID{from, to}}
}

// clearDelta forgets the patch anchor: rank-level and wholesale changes
// invalidate too much structure for a single-link patch to be sound.
func (a *AdapCC) clearDelta() { a.lastDelta = nil }

// ExcludeLink writes a directed link (both directions) off the synthesis
// topology: cached strategies are dropped and every future synthesis routes
// around it. The fabric is untouched — the link may still carry traffic of
// previously-started collectives.
func (a *AdapCC) ExcludeLink(from, to topology.NodeID) {
	a.noteDelta(synth.DeltaExclude, from, to)
	a.deadPairs[[2]topology.NodeID{from, to}] = true
	a.deadPairs[[2]topology.NodeID{to, from}] = true
	a.exclusionsChanged()
}

// ExcludeRank writes a worker off the synthesis topology: its GPU node's
// links are dropped and it is removed from default participant sets.
func (a *AdapCC) ExcludeRank(rank int) {
	a.clearDelta()
	a.deadRanks[rank] = true
	a.exclusionsChanged()
}

// ExcludedRanks returns the written-off workers, sorted.
func (a *AdapCC) ExcludedRanks() []int {
	out := make([]int, 0, len(a.deadRanks))
	for r := range a.deadRanks {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// ClearExclusions forgets all fault exclusions (elastic re-admission after
// repair: the counterpart of relay.Coordinator.Readmit).
func (a *AdapCC) ClearExclusions() {
	a.clearDelta()
	a.deadPairs = make(map[[2]topology.NodeID]bool)
	a.deadRanks = make(map[int]bool)
	a.exclusionsChanged()
}

// exclusionsChanged refreshes the fault-filtered views after the exclusion
// set moved. The strategy cache survives: entries are keyed under the
// exclusion fingerprint (see synthesize), so strategies solved for other
// fault sets stay addressable and a healing flap that restores a previous
// topology hits the cache instead of re-solving. Only cost changes
// (Reconstruct, AbsorbMeasurements) wipe the cache outright.
func (a *AdapCC) exclusionsChanged() {
	a.survGraph, a.survCosts, a.softCosts = nil, nil, nil
	a.fingerprint = a.exclusionFingerprint()
}

// exclusionFingerprint canonically encodes the exclusion set: the sorted
// dead pairs, the sorted dead ranks, then the sorted degraded pairs with
// their down-weights quantized to percent (a weight wobble below 1% is
// noise, not a new topology). Empty when nothing is excluded or degraded,
// so the fault-free fast path builds the exact same cache keys (and
// allocates nothing extra) as before fault support existed.
func (a *AdapCC) exclusionFingerprint() string {
	if len(a.deadPairs) == 0 && len(a.deadRanks) == 0 && len(a.softPairs) == 0 {
		return ""
	}
	links := a.ExcludedLinks()
	ranks := a.ExcludedRanks()
	soft := a.DegradedLinks()
	b := make([]byte, 0, 8+12*len(links)+6*len(ranks)+16*len(soft))
	b = append(b, "x!"...)
	for _, p := range links {
		b = strconv.AppendInt(b, int64(p[0]), 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(p[1]), 10)
		b = append(b, ',')
	}
	b = append(b, '/')
	for _, r := range ranks {
		b = strconv.AppendInt(b, int64(r), 10)
		b = append(b, ',')
	}
	if len(soft) > 0 {
		b = append(b, '~')
		for _, p := range soft {
			b = strconv.AppendInt(b, int64(p[0]), 10)
			b = append(b, '-')
			b = strconv.AppendInt(b, int64(p[1]), 10)
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(a.softPairs[p]*100), 10)
			b = append(b, ',')
		}
	}
	b = append(b, '|')
	return string(b)
}

// faultLocality classifies a fault report by server geometry: a link whose
// endpoints share a server — or a rank fault, since a GPU and its intra-
// server links live on exactly one server — is domain-local; a link between
// servers is a boundary fault on the shared fabric.
func (a *AdapCC) faultLocality(rep collective.FaultReport) string {
	if rep.Kind != collective.LinkFault {
		return LocalityDomainLocal
	}
	g := a.env.Graph
	if rep.From >= 0 && rep.To >= 0 &&
		g.Node(rep.From).Server == g.Node(rep.To).Server {
		return LocalityDomainLocal
	}
	return LocalityBoundary
}

// activeGraph returns the synthesis topology: the full graph, or a
// node-preserving clone without excluded links and without any link
// touching an excluded rank's GPU (a crashed worker cannot forward).
func (a *AdapCC) activeGraph() *topology.Graph {
	if len(a.deadPairs) == 0 && len(a.deadRanks) == 0 {
		return a.env.Graph
	}
	if a.survGraph == nil {
		deadNodes := make(map[topology.NodeID]bool, len(a.deadRanks))
		for r := range a.deadRanks {
			if id, ok := a.env.Graph.GPUByRank(r); ok {
				deadNodes[id] = true
			}
		}
		a.survGraph = a.env.Graph.CloneFilteredEdges(func(e topology.Edge) bool {
			return !a.deadPairs[[2]topology.NodeID{e.From, e.To}] &&
				!deadNodes[e.From] && !deadNodes[e.To]
		})
	}
	return a.survGraph
}

// activeCosts returns the synthesizer's cost view over activeGraph,
// remapping profiled values onto the filtered clone and down-weighting
// links the gray-failure detector has ruled degraded.
func (a *AdapCC) activeCosts() *synth.Costs {
	g := a.activeGraph()
	base := a.costs
	if g != a.env.Graph {
		if a.survCosts == nil {
			a.survCosts = a.costs.RemapTo(g)
		}
		base = a.survCosts
	}
	if len(a.softPairs) == 0 {
		return base
	}
	if a.softCosts == nil {
		a.softCosts = base.Reweighted(func(from, to topology.NodeID) float64 {
			if w, ok := a.softPairs[[2]topology.NodeID{from, to}]; ok {
				return w
			}
			return 1
		})
	}
	return a.softCosts
}

// pruneUnreachable splits ranks into the largest mutually-reachable group
// on the surviving topology and the rest. Round-trip reachability is what
// the executor needs (AllReduce runs each path forward and reversed). It is
// an equivalence relation, so the groups are the usable GPUs of each
// strongly connected component of activeGraph. A component costs one
// forward sweep over Out edges and one backward sweep over In edges,
// confined to the forward set. Bases are taken in ascending rank order and
// ranks already placed are skipped, so ties between equally large groups
// break toward the lowest-ranked member.
func (a *AdapCC) pruneUnreachable(ranks []int) (alive, dropped []int) {
	g := a.activeGraph()
	gpus := g.GPUs()
	sorted := append([]int(nil), ranks...)
	sort.Ints(sorted)
	usable := make([]int, 0, len(sorted))
	node := make([]topology.NodeID, 0, len(sorted))
	for _, r := range sorted {
		i := sort.Search(len(gpus), func(i int) bool { return g.Node(gpus[i]).Rank >= r })
		if a.deadRanks[r] || i == len(gpus) || g.Node(gpus[i]).Rank != r {
			dropped = append(dropped, r)
			continue
		}
		usable = append(usable, r)
		node = append(node, gpus[i])
	}

	// fwd[v] and bwd[v] hold the number of the last component whose forward
	// or backward sweep reached v, so the marks never need clearing. A
	// backward sweep reaches exactly its component, so bwd[v] != 0 means v
	// is placed.
	fwd := make([]int32, g.NumNodes())
	bwd := make([]int32, g.NumNodes())
	queue := make([]topology.NodeID, 0, g.NumNodes())
	var bestComp int32
	bestSize := 0
	left := len(usable) // usable ranks not yet placed
	for bi, base := range node {
		if left <= bestSize {
			break // no unplaced group can be strictly larger
		}
		if bwd[base] != 0 {
			continue
		}
		comp := int32(bi + 1)
		fwd[base], queue = comp, append(queue[:0], base)
		for h := 0; h < len(queue); h++ {
			for _, eid := range g.Out(queue[h]) {
				if to := g.Edge(eid).To; fwd[to] != comp {
					fwd[to] = comp
					queue = append(queue, to)
				}
			}
		}
		bwd[base], queue = comp, append(queue[:0], base)
		for h := 0; h < len(queue); h++ {
			for _, eid := range g.In(queue[h]) {
				if from := g.Edge(eid).From; fwd[from] == comp && bwd[from] != comp {
					bwd[from] = comp
					queue = append(queue, from)
				}
			}
		}
		size := 0
		for _, v := range node[bi:] {
			if bwd[v] == comp {
				size++
			}
		}
		left -= size
		if size > bestSize {
			bestSize, bestComp = size, comp
		}
	}
	if bestSize > 0 {
		alive = make([]int, 0, bestSize)
	}
	for i, r := range usable {
		if bwd[node[i]] == bestComp {
			alive = append(alive, r)
		} else {
			dropped = append(dropped, r)
		}
	}
	sort.Ints(dropped)
	return alive, dropped
}

// synthesizeLadder walks the degradation ladder for the survivors: the full
// candidate search, the restricted fast search, then the shortest-path flat
// ring. It returns the strategy and the rung name.
func (a *AdapCC) synthesizeLadder(req backend.Request, ranks []int) (*synth.Result, string, error) {
	res, err := a.Strategy(req.Primitive, req.Bytes, ranks, nil, req.Root)
	if err == nil {
		return res, "full", nil
	}
	res, ferr := a.FastStrategy(req.Primitive, req.Bytes, ranks, nil, req.Root)
	if ferr == nil {
		return res, "fast", nil
	}
	res, derr := synth.DegradedRing(a.activeCosts(), synth.Request{
		Primitive: req.Primitive,
		Bytes:     req.Bytes,
		Ranks:     ranks,
		Root:      req.Root,
		M:         1,
	})
	if derr == nil {
		a.lastSolveTime += res.SolveTime
		a.recordSynth("degraded-ring", res.SolveTime)
		return res, "degraded-ring", nil
	}
	return nil, "", fmt.Errorf("core: no feasible strategy over survivors: %v; fast: %v; degraded ring: %v", err, ferr, derr)
}

// patchResult is the incremental rung above the synthesis ladder: after a
// domain-local link fault it hands the last executed result and the excluded
// pair to synth.Patch, which reroutes only the flows whose path traverses
// the pair — every untouched sub-collective shares its flows with the
// previous strategy verbatim, and all partition/chunk/aggregation tuning is
// kept. The patched plan must validate on the surviving graph and pass the
// IR verifier (unconditionally); on any failure the caller falls back to
// the full ladder.
func (a *AdapCC) patchResult(prev *synth.Result, pair [2]topology.NodeID) *synth.Result {
	res, stats, err := synth.Patch(a.activeCosts(), prev, synth.Delta{Kind: synth.DeltaExclude, Pair: pair})
	if err != nil {
		a.recordPatch(stats, false)
		return nil
	}
	if err := res.Strategy.Validate(a.activeGraph()); err != nil {
		a.recordPatch(stats, false)
		return nil
	}
	if err := a.verifyPatched(res.Strategy, false); err != nil {
		a.recordPatch(stats, false)
		return nil
	}
	a.recordPatch(stats, true)
	a.recordSynth("patched", res.SolveTime)
	a.lastSolveTime += res.SolveTime
	return res
}

// resilientRun is the state of one RunResilient invocation.
type resilientRun struct {
	a      *AdapCC
	req    backend.Request
	opts   ResilientOptions
	onDone func(ResilientResult, error)

	started  time.Duration
	attempts int
	events   []RecoveryEvent
	ranks    []int
	world    int

	// Incremental-recovery state: the synthesis result the last attempt
	// executed and — when the pending fault qualifies (domain-local link
	// fault, no ranks dropped) — the excluded pair to patch around instead
	// of re-synthesizing from scratch.
	lastResult     *synth.Result
	tryIncremental bool
	patchPair      [2]topology.NodeID
}

// RunResilient executes a collective with chunk-granularity fault recovery.
// Progress happens on the simulation engine; completion or terminal failure
// is delivered through onDone (exactly once). The immediate return error
// covers malformed calls only. Like the executor it feeds, RunResilient is
// single-flight: start the next collective after onDone fires.
//
// Ranks already excluded by earlier faults are silently dropped from the
// request's participant set; the collective completes with correct
// aggregates over the survivors of the final attempt.
//
//	a.RunResilient(req, cb, core.WithMaxAttempts(4), core.WithHeal(hopts))
func (a *AdapCC) RunResilient(req backend.Request, onDone func(ResilientResult, error), options ...ResilientOption) error {
	var opts ResilientOptions
	for _, o := range options {
		o(&opts)
	}
	if onDone == nil {
		return fmt.Errorf("core: RunResilient needs an onDone callback")
	}
	if err := req.ValidateIn(a.env); err != nil {
		return err
	}
	if opts.Recovery.OnFault != nil {
		return fmt.Errorf("core: ResilientOptions.Recovery.OnFault is owned by RunResilient")
	}
	if req.OnDone != nil {
		return fmt.Errorf("core: use the RunResilient onDone, not Request.OnDone")
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = DefaultMaxAttempts
	}
	ranks := req.Ranks
	if ranks == nil {
		ranks = a.env.AllRanks()
	}
	if opts.Heal != nil {
		a.EnableHealing(*opts.Heal)
	}
	rr := &resilientRun{
		a:       a,
		req:     req,
		opts:    opts,
		onDone:  onDone,
		started: a.env.Engine.Now(),
		ranks:   append([]int(nil), ranks...),
		world:   len(ranks),
	}
	// Fault↔heal livelock guard: promotions are held for the duration of
	// the run, so every failed attempt strictly shrinks the topology and
	// the MaxAttempts termination argument still holds.
	if a.healer != nil {
		a.healer.Hold()
	}
	rr.attempt()
	return nil
}

// attempt prunes the participant set, synthesizes via the ladder and starts
// one execution; the rung used is recorded on the pending recovery event.
func (rr *resilientRun) attempt() {
	a := rr.a
	alive, droppedNow := a.pruneUnreachable(rr.ranks)
	rr.ranks = alive
	if n := len(rr.events); n > 0 && len(droppedNow) > 0 {
		rr.events[n-1].ExcludedRanks = append(rr.events[n-1].ExcludedRanks, droppedNow...)
	}
	if len(alive) < 2 {
		rr.fail(fmt.Errorf("core: only %d rank(s) survive — nothing to communicate", len(alive)))
		return
	}
	var strat *synth.Result
	var ladder string
	if rr.tryIncremental {
		rr.tryIncremental = false
		if rr.lastResult != nil && len(droppedNow) == 0 {
			if p := a.patchResult(rr.lastResult, rr.patchPair); p != nil {
				strat, ladder = p, "incremental"
			}
		}
		if strat == nil {
			// The cheap domain-local patch failed: pay the rest of the
			// full reconstruction charge (onFault charged only the
			// incremental share) before the full ladder runs.
			diff := a.setupTime() - a.incrementalSetupTime()
			if n := len(rr.events); n > 0 {
				rr.events[n-1].Overhead += diff
			}
			a.lastSetupTime = a.setupTime()
			a.env.Engine.After(diff, func() { rr.attempt() })
			return
		}
	}
	if strat == nil {
		res, l, err := a.synthesizeLadder(rr.req, alive)
		if err != nil {
			rr.fail(err)
			return
		}
		strat, ladder = res, l
	}
	if n := len(rr.events); n > 0 {
		rr.events[n-1].Ladder = ladder
		a.recordRecovery(ladder, rr.events[n-1].Locality)
	}
	rr.lastResult = strat
	active := make(map[int]bool, len(alive))
	for _, r := range alive {
		active[r] = true
	}
	rec := rr.opts.Recovery
	rec.OnFault = rr.onFault
	rr.attempts++
	err := a.env.Exec.Run(collective.Op{
		Strategy: strat.Strategy,
		Mode:     rr.req.Mode,
		Inputs:   rr.req.Inputs,
		Active:   active,
		Recovery: &rec,
		OnDone:   rr.complete,
	})
	if err != nil {
		rr.fail(fmt.Errorf("core: attempt %d failed to start: %w", rr.attempts, err))
	}
}

// onFault is the executor's fault callback: exclude, report, charge the
// reconstruction overhead, retry.
func (rr *resilientRun) onFault(rep collective.FaultReport) {
	a := rr.a
	ev := RecoveryEvent{
		Attempt:       rr.attempts - 1,
		Report:        rep,
		ExcludedPair:  [2]topology.NodeID{-1, -1},
		Locality:      a.faultLocality(rep),
		DetectLatency: rep.At - rep.Started,
	}
	a.recordFault(rep.Kind.String())
	rr.tryIncremental = false
	switch rep.Kind {
	case collective.LinkFault:
		a.ExcludeLink(rep.From, rep.To)
		ev.ExcludedPair = [2]topology.NodeID{rep.From, rep.To}
		// A link fault confined to one server qualifies for the
		// incremental rung: patch the last strategy around the pair
		// instead of walking the global synthesis ladder.
		rr.tryIncremental = ev.Locality == LocalityDomainLocal
		rr.patchPair = ev.ExcludedPair
		if a.healer != nil {
			a.healer.WatchLink(rep.From, rep.To)
		}
	case collective.StallFault:
		if rep.Rank < 0 {
			rr.events = append(rr.events, ev)
			rr.fail(fmt.Errorf("core: unattributable stall at %v — no link or rank to exclude", rep.At))
			return
		}
		a.ExcludeRank(rep.Rank)
		ev.ExcludedRanks = append(ev.ExcludedRanks, rep.Rank)
		if a.healer != nil {
			a.healer.WatchRank(rep.Rank)
		}
	}
	if rr.attempts >= rr.opts.MaxAttempts {
		rr.events = append(rr.events, ev)
		rr.fail(fmt.Errorf("core: fault on final attempt %d/%d: %v", rr.attempts, rr.opts.MaxAttempts, rep))
		return
	}
	// The Fig. 19c reconstruction charge, minus profiling: contexts are
	// re-registered for the new strategy, the solver re-runs (charged via
	// SolveTime inside synthesis), nothing restarts. A fault that
	// qualifies for the incremental rung is charged only the faulted
	// server's share up front; if the patch then fails, attempt() charges
	// the remainder before falling back to the full ladder.
	setup := a.setupTime()
	if rr.tryIncremental {
		setup = a.incrementalSetupTime()
	}
	a.lastSetupTime = setup
	a.setupCount++
	a.recordReconstruct()
	ev.Overhead = setup
	rr.events = append(rr.events, ev)
	a.env.Engine.After(setup, func() { rr.attempt() })
}

func (rr *resilientRun) complete(res collective.Result) {
	if rr.a.healer != nil {
		rr.a.healer.Release()
	}
	out := ResilientResult{
		Result:    res,
		Survivors: append([]int(nil), rr.ranks...),
		Attempts:  rr.attempts,
		Events:    rr.events,
		Elapsed:   rr.a.env.Engine.Now() - rr.started,
	}
	rr.a.recordRecovered(out.Attempts, out.TimeToRecover())
	rr.a.recordRecoveryEvents(rr.world, rr.events)
	rr.onDone(out, nil)
}

func (rr *resilientRun) fail(err error) {
	if rr.a.healer != nil {
		rr.a.healer.Release()
	}
	out := ResilientResult{
		Survivors: append([]int(nil), rr.ranks...),
		Attempts:  rr.attempts,
		Events:    rr.events,
		Elapsed:   rr.a.env.Engine.Now() - rr.started,
	}
	rr.onDone(out, err)
}
