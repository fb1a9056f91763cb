// Package core is AdapCC's public API (paper Sec. III, VI-A): it wires the
// Controller — Detector, Profiler, Synthesizer and relay Coordinator — to
// the Communicator/Executor. The lifecycle mirrors the paper's Python
// module:
//
//	a, _ := core.New(env)       // adapcc.init(): detect topology
//	a.Setup(done)                               // adapcc.setup(): profile + register contexts
//	a.Run(backend.Request{...})                 // adapcc.allreduce() / alltoall() / ...
//	a.Reconstruct(done)                         // runtime re-profiling + graph reconstruction
//
// Strategies are synthesised from profiled link properties and cached per
// (primitive, size, participant set); Reconstruct invalidates the cache
// after re-profiling, without checkpointing or restarting anything.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"adapcc/internal/backend"
	"adapcc/internal/collective"
	"adapcc/internal/detect"
	"adapcc/internal/grayfail"
	"adapcc/internal/health"
	"adapcc/internal/metrics"
	"adapcc/internal/profile"
	"adapcc/internal/strategy"
	"adapcc/internal/synth"
	"adapcc/internal/topology"
)

// Options configures an AdapCC instance. Callers construct it through the
// With* functional options of New; the struct stays exported so the
// resolved configuration can be inspected.
type Options struct {
	// M is the number of parallel sub-collectives (default synth.DefaultM).
	M int
	// ExactM pins M instead of treating it as a cap (Fig. 19a sweep).
	ExactM bool
	// SkipProfiling makes the synthesizer run on nominal hardware labels
	// (the profiling ablation).
	SkipProfiling bool
	// Verify lowers every freshly synthesised strategy to the chunk-level
	// IR (internal/ir) and rejects it unless the verifier proves the
	// schedule delivers each rank its required chunks with every
	// contribution reduced exactly once. Decisions are counted in
	// adapcc_ir_verify_total{result}.
	Verify bool
	// Sketch, when non-nil, restricts every synthesis this instance runs
	// (synth.Sketch: leader hints, ring orientation, hierarchy cut,
	// candidate-family allow/deny, pinned chunk). Validated by New; a
	// sketch that is well-formed but infeasible for a given request
	// surfaces as synth.ErrInfeasibleSketch from that request.
	Sketch *synth.Sketch
}

// Option configures New, in the package-wide With* functional-option
// style (see doc.go of internal/comm for the convention).
type Option func(*Options)

// WithM caps the number of parallel sub-collectives (transmission
// contexts) the synthesizer may use.
func WithM(m int) Option {
	return func(o *Options) { o.M = m }
}

// WithExactM pins the sub-collective count to exactly m (the Fig. 19a
// ablation sweep), instead of treating it as a cap.
func WithExactM(m int) Option {
	return func(o *Options) { o.M, o.ExactM = m, true }
}

// WithSkipProfiling makes the synthesizer run on nominal hardware labels
// instead of profiled ones (the profiling ablation; also what keeps
// timing independent of the profiling phase's seed).
func WithSkipProfiling() Option {
	return func(o *Options) { o.SkipProfiling = true }
}

// WithVerify proves every freshly synthesised strategy correct through
// the chunk-level IR verifier before it is cached or executed (the
// adapccsim -verify flag).
func WithVerify() Option {
	return func(o *Options) { o.Verify = true }
}

// WithSketch restricts every synthesis of the instance with a
// communication sketch (synth.Sketch): leader hints, ring orientation,
// hierarchy cut, candidate-family allow/deny and a pinned chunk size. The
// sketch is validated by New (ErrInvalidOption wrapping the synth error);
// a sketch that is well-formed but infeasible for a given request fails
// that request with synth.ErrInfeasibleSketch.
func WithSketch(sk *synth.Sketch) Option {
	return func(o *Options) { o.Sketch = sk }
}

// ErrInvalidOption is wrapped by New's option-validation failures; match
// with errors.Is.
var ErrInvalidOption = errors.New("core: invalid option")

// AdapCC is one job-wide library instance (logically replicated on every
// worker; the controller modules run on rank 0).
type AdapCC struct {
	env  *backend.Env
	opts Options

	detection *detect.Result
	report    *profile.Report
	costs     *synth.Costs

	// planner is the stateful synthesizer face: it keeps subBuilders (and
	// their per-subdomain flow fragments) alive across every synthesis this
	// instance runs, so hierarchical re-synthesis after a fault re-derives
	// only what the changed topology invalidates.
	planner *synth.Planner

	cache map[string]*synth.Result

	// Fault-exclusion state (chunk-granularity recovery, resilient.go):
	// links and ranks the controller has written off. Synthesis runs over
	// a clone of the graph without them; the fabric keeps the full graph,
	// so previously-cached node paths remain executable.
	deadPairs map[[2]topology.NodeID]bool
	deadRanks map[int]bool
	survGraph *topology.Graph // lazily built fault-filtered clone
	survCosts *synth.Costs    // cost view remapped onto survGraph
	// Gray-failure state (grayfail.go): links the congestion detector has
	// ruled degraded — alive, delivering, just slow. They stay on the
	// synthesis topology but their bandwidths are down-weighted by the
	// stored factor, so re-synthesis steers around them without writing
	// them off. softPairs holds both directions of each pair.
	softPairs map[[2]topology.NodeID]float64
	softCosts *synth.Costs // lazily reweighted view over activeCosts' base
	// fingerprint canonically encodes the current exclusion set (sorted
	// dead pairs + dead ranks); empty when nothing is excluded. It prefixes
	// strategy-cache keys, so strategies synthesised under different fault
	// sets coexist and a healing flap that restores a previous topology
	// hits the cache instead of re-solving (see exclusionsChanged).
	fingerprint string
	// baseCostFP is the cost view's content hash captured at the last
	// Reconstruct; costPrefix is empty while the current costs still match
	// it (the fault-free fast path allocates nothing extra) and carries the
	// hash otherwise, so strategies solved under different measurement sets
	// coexist in the cache instead of wiping each other (heal.go).
	baseCostFP uint64
	costPrefix string
	// prevPrefix/lastDelta remember the cache prefix before the most recent
	// single-link change and what that change was, so a cache miss after an
	// exclusion, re-admission or reweight first tries synth.Patch against
	// the previous epoch's entry — gated through ir.Verify — before paying
	// a full search. Rank-level and wholesale changes clear the delta.
	prevPrefix string
	lastDelta  *synth.Delta

	// Elastic healing (heal.go): the background monitor re-admitting
	// excluded hardware and the user observers. All nil/free until
	// EnableHealing.
	healer        *health.Monitor
	healOnHeal    func(health.Event)
	healOnCondemn func(health.Event)

	// Gray-failure detection (grayfail.go): the in-fabric congestion
	// monitor and its observer. Nil/free until EnableGrayfail.
	grayMon       *grayfail.Monitor
	grayOnVerdict func(grayfail.Event)
	grayWeight    float64

	// Accounting for the reconstruction-overhead experiment (Fig. 19c).
	lastProfileTime time.Duration
	lastSolveTime   time.Duration
	lastSetupTime   time.Duration
	setupCount      int

	// reg/cm are the metrics registry and the controller's pre-resolved
	// instrument bundle; both nil (free) unless SetMetrics was called.
	reg *metrics.Registry
	cm  *coreMetrics
}

var _ backend.Backend = (*AdapCC)(nil)

// New runs topology detection (adapcc.init()) and returns the instance.
// Detection probes the physical cluster through the hardware prober; its
// cost is the constant per-server probe time (Sec. VI-E: ≈1.2 s,
// concurrent across servers) and is reported by InitTime rather than
// charged to the engine, since it happens before training starts.
//
//	a, err := core.New(env, core.WithM(4), core.WithSkipProfiling())
func New(env *backend.Env, options ...Option) (*AdapCC, error) {
	var opts Options
	for _, o := range options {
		o(&opts)
	}
	if env == nil {
		return nil, fmt.Errorf("core: nil environment")
	}
	if opts.M <= 0 {
		opts.M = synth.DefaultM
	}
	if err := opts.Sketch.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidOption, err)
	}
	prober := detect.NewHardwareProber(env.Cluster, env.Engine.Fork())
	det, err := detect.Detect(env.Cluster, prober)
	if err != nil {
		return nil, fmt.Errorf("core: detection: %w", err)
	}
	a := &AdapCC{
		env:       env,
		opts:      opts,
		detection: det,
		costs:     synth.NewCosts(env.Graph, nil),
		planner:   synth.NewPlanner(),
		cache:     make(map[string]*synth.Result),
		deadPairs: make(map[[2]topology.NodeID]bool),
		deadRanks: make(map[int]bool),
		softPairs: make(map[[2]topology.NodeID]float64),
	}
	a.baseCostFP = a.costs.Fingerprint()
	return a, nil
}

// Name implements backend.Backend.
func (a *AdapCC) Name() string { return "AdapCC" }

// Env returns the simulated hardware environment.
func (a *AdapCC) Env() *backend.Env { return a.env }

// InitTime is the topology-inference cost (constant in job scale).
func (a *AdapCC) InitTime() time.Duration { return a.detection.InferenceTime }

// Detection exposes the inferred per-server layouts.
func (a *AdapCC) Detection() *detect.Result { return a.detection }

// Costs returns the current α–β view used by the synthesizer.
func (a *AdapCC) Costs() *synth.Costs { return a.costs }

// Report returns the latest profiling report (nil before Setup).
func (a *AdapCC) Report() *profile.Report { return a.report }

// Setup profiles the links and registers transmission contexts
// (adapcc.setup()); onDone fires on the engine when ready. Training must
// not start before it completes.
func (a *AdapCC) Setup(onDone func()) {
	a.Reconstruct(func(time.Duration) {
		if onDone != nil {
			onDone()
		}
	})
}

// Reconstruct re-profiles the links, refreshes the cost model, drops the
// strategy cache and re-registers transmission contexts. The training job
// is never checkpointed or restarted: onDone receives the full overhead —
// profiling + strategy solving + context set-up — which is what Fig. 19c
// measures against an NCCL restart.
func (a *AdapCC) Reconstruct(onDone func(overhead time.Duration)) {
	start := a.env.Engine.Now()
	run := func(rep *profile.Report) {
		if rep != nil {
			a.report = rep
			a.costs = synth.NewCosts(a.env.Graph, rep)
			a.lastProfileTime = rep.Duration()
		} else {
			a.lastProfileTime = 0
		}
		a.survGraph, a.survCosts, a.softCosts = nil, nil, nil // rebuilt from the fresh costs
		a.cache = make(map[string]*synth.Result)
		// The fresh measurements become the new cost baseline: the
		// fault-free path keys with no cost prefix again, and any
		// pending single-link delta is meaningless against it.
		a.baseCostFP = a.costs.Fingerprint()
		a.costPrefix = ""
		a.lastDelta = nil
		a.lastSolveTime = 0
		setup := a.setupTime()
		a.lastSetupTime = setup
		a.setupCount++
		a.recordReconstruct()
		a.env.Engine.After(setup, func() {
			if onDone != nil {
				onDone(a.env.Engine.Now() - start)
			}
		})
	}
	if a.opts.SkipProfiling {
		run(nil)
		return
	}
	profile.New(a.env.Fabric, profile.Options{}).Run(run)
}

// setupTime models the transmission-context set-up phase of Sec. V-A:
// buffer allocation, CUDA IPC handle creation, the handle AllGather within
// each server and the host-IP exchange across servers. Registered memory
// is reused afterwards, so this is paid once per (re)construction.
const (
	setupBase       = 120 * time.Millisecond
	setupPerContext = 30 * time.Millisecond
	setupPerServer  = 12 * time.Millisecond
)

func (a *AdapCC) setupTime() time.Duration {
	servers := len(a.env.Cluster.Servers)
	return setupBase +
		time.Duration(a.opts.M)*setupPerContext +
		time.Duration(servers*a.opts.M)*setupPerServer
}

// incrementalSetupTime is the reduced context charge of the incremental
// recovery rung (resilient.go): a domain-local patch keeps every partition,
// chunk size and aggregation site, so only the faulted server's M contexts
// re-register — one server's share of setupTime, with no base charge.
func (a *AdapCC) incrementalSetupTime() time.Duration {
	return setupPerContext + time.Duration(a.opts.M)*setupPerServer
}

// Overheads reports the components of the last reconstruction.
func (a *AdapCC) Overheads() (profiling, solving, setup time.Duration) {
	return a.lastProfileTime, a.lastSolveTime, a.lastSetupTime
}

// Run implements backend.Backend: it validates the request, synthesises
// (or reuses) the strategy, and executes it. It is the single execution
// entry point — partial collectives and the internal fast path are
// expressed as options:
//
//	a.Run(req)                                   // full collective
//	a.Run(req, backend.WithRelays(relays...))    // partial: req.Ranks ready, relays attached
//	a.Run(req, backend.WithFastPath())           // restricted per-iteration synthesis
//	a.Run(req, backend.WithGroup("tp0", class))  // on behalf of a communicator group
func (a *AdapCC) Run(req backend.Request, opts ...backend.RunOption) error {
	if err := req.ValidateIn(a.env); err != nil {
		return err
	}
	cfg := backend.BuildRunConfig(opts)
	synthesize := a.Strategy
	if cfg.FastPath {
		synthesize = a.FastStrategy
	}
	res, err := synthesize(req.Primitive, req.Bytes, req.Ranks, cfg.Relays, req.Root)
	if err != nil {
		return err
	}
	op := collective.Op{
		Strategy: res.Strategy,
		Mode:     req.Mode,
		Inputs:   req.Inputs,
		Class:    cfg.Class,
		OnDone:   req.OnDone,
	}
	if cfg.Relays != nil {
		// Partial collective: only the request's ranks contribute data;
		// the relays participate per their behaviour tuples.
		active := make(map[int]bool, len(req.Ranks))
		for _, r := range req.Ranks {
			active[r] = true
		}
		op.Active = active
	}
	return a.env.Exec.Run(op)
}

// Strategy synthesises (with caching) the plan for a collective using the
// full candidate search.
func (a *AdapCC) Strategy(p strategy.Primitive, bytes int64, ranks, relays []int, root int) (*synth.Result, error) {
	return a.synthesize(p, bytes, ranks, relays, root, false)
}

// FastStrategy synthesises with the restricted per-iteration search the
// relay coordinator uses for phase-1/phase-2 plans over transient
// ready-sets (synthesis latency is on the iteration's critical path).
func (a *AdapCC) FastStrategy(p strategy.Primitive, bytes int64, ranks, relays []int, root int) (*synth.Result, error) {
	return a.synthesize(p, bytes, ranks, relays, root, true)
}

// prefix composes the cache-key prefix of the current epoch: the cost
// fingerprint (non-empty only after AbsorbMeasurements moved the costs off
// the Reconstruct baseline) followed by the exclusion fingerprint. Empty on
// the fault-free path, so those keys allocate nothing extra.
func (a *AdapCC) prefix() string { return a.costPrefix + a.fingerprint }

func (a *AdapCC) synthesize(p strategy.Primitive, bytes int64, ranks, relays []int, root int, fast bool) (*synth.Result, error) {
	if ranks == nil {
		ranks = a.env.AllRanks()
	}
	key := cacheKey(p, bytes, ranks, relays, root)
	if fast {
		key = "fast|" + key
	}
	full := key
	if pre := a.prefix(); pre != "" {
		full = pre + key
	}
	if res, ok := a.cache[full]; ok {
		a.recordCacheLookup(true)
		return res, nil
	}
	a.recordCacheLookup(false)
	if res := a.patchFromPrevious(key, false); res != nil {
		a.cache[full] = res
		a.lastSolveTime += res.SolveTime
		return res, nil
	}
	res, err := a.planner.Synthesize(a.activeCosts(), synth.Request{
		Primitive:  p,
		Bytes:      bytes,
		Ranks:      ranks,
		Relays:     relays,
		Root:       root,
		M:          a.opts.M,
		ExactM:     a.opts.ExactM,
		FastSearch: fast,
		Sketch:     a.opts.Sketch,
	})
	if err != nil {
		return nil, err
	}
	if err := a.verifyStrategy(res.Strategy, false); err != nil {
		return nil, err
	}
	mode := "full"
	if fast {
		mode = "fast"
	}
	a.recordSynth(mode, res.SolveTime)
	a.cache[full] = res
	a.lastSolveTime += res.SolveTime
	return res, nil
}

// patchFromPrevious is the incremental tier of the strategy cache: when the
// most recent topology change was a single-link delta, a miss under the new
// prefix first looks the same shape up under the previous epoch's prefix and
// asks synth.Patch to reroute/re-price that result instead of re-searching.
// The patched strategy must validate on the surviving graph and pass the IR
// verifier (unconditionally — patches skip the search's vetted candidate
// space, so they are never adopted on trust); any failure falls back to the
// full synthesis the caller was about to run anyway.
func (a *AdapCC) patchFromPrevious(key string, multiRoot bool) *synth.Result {
	if a.lastDelta == nil {
		return nil
	}
	cur := a.prefix()
	if a.prevPrefix == cur {
		return nil
	}
	prev, ok := a.cache[a.prevPrefix+key]
	if !ok {
		return nil
	}
	res, stats, err := synth.Patch(a.activeCosts(), prev, *a.lastDelta)
	if err != nil {
		a.recordPatch(stats, false)
		return nil
	}
	if err := res.Strategy.Validate(a.activeGraph()); err != nil {
		a.recordPatch(stats, false)
		return nil
	}
	if err := a.verifyPatched(res.Strategy, multiRoot); err != nil {
		a.recordPatch(stats, false)
		return nil
	}
	a.recordPatch(stats, true)
	a.recordSynth("patched", res.SolveTime)
	return res
}

// CachedStrategies reports the number of synthesized strategies in the
// shared cache. Communicator groups (internal/comm) with identical
// participant sets resolve to one entry — the cache is keyed by shape,
// not by group.
func (a *AdapCC) CachedStrategies() int { return len(a.cache) }

// Predict returns the synthesizer's predicted completion time for a
// collective (the coordinator's cost estimates use this).
func (a *AdapCC) Predict(p strategy.Primitive, bytes int64, ranks, relays []int, root int) (time.Duration, error) {
	res, err := a.Strategy(p, bytes, ranks, relays, root)
	if err != nil {
		return 0, err
	}
	return res.Eval.Time, nil
}

// AggregateBandwidthBps implements the paper's B: the accumulated profiled
// bandwidth of the network links feeding the servers that host the given
// workers (plus relays).
func (a *AdapCC) AggregateBandwidthBps(ready, relays []int) float64 {
	g := a.env.Graph
	servers := make(map[int]bool)
	for _, set := range [][]int{ready, relays} {
		for _, r := range set {
			if id, ok := g.GPUByRank(r); ok {
				servers[g.Node(id).Server] = true
			}
		}
	}
	var sum float64
	for _, e := range g.Edges() {
		if !e.Type.Network() {
			continue
		}
		// NIC port edges (to/from the core switch) of involved servers.
		endpoint := g.Node(e.From)
		if endpoint.Kind != topology.KindNIC {
			endpoint = g.Node(e.To)
		}
		if endpoint.Kind != topology.KindNIC || !servers[endpoint.Server] {
			continue
		}
		if a.report != nil {
			sum += a.report.AggregateBps(g, e.ID)
		} else {
			sum += e.BandwidthBps
		}
	}
	sum /= 2 // each port was counted for both directions
	if sum == 0 && len(servers) == 1 {
		// Single-server job: accumulate NVLink bandwidth instead.
		for _, e := range g.Edges() {
			if e.Type == topology.LinkNVLink {
				sum += e.BandwidthBps
			}
		}
	}
	return sum
}

func cacheKey(p strategy.Primitive, bytes int64, ranks, relays []int, root int) string {
	b := make([]byte, 0, 64)
	b = strconv.AppendInt(b, int64(p), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, bytes, 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(root), 10)
	for _, set := range [][]int{ranks, relays} {
		b = append(b, '|')
		sorted := append([]int(nil), set...)
		sort.Ints(sorted)
		for _, r := range sorted {
			b = strconv.AppendInt(b, int64(r), 10)
			b = append(b, ',')
		}
	}
	return string(b)
}
