package train

import (
	"fmt"
	"math/rand"
	"time"

	"adapcc/internal/backend"
	"adapcc/internal/fabric"
	"adapcc/internal/topology"
)

// Interference models co-located online-serving workloads (Fig. 18b):
// every ResampleEvery of virtual time, 0–2 GPUs per server are chosen as
// victims. CPU cache and memory-bandwidth contention on the affinity
// socket slows both the victims' compute and their host data path (the
// GPU↔NIC PCIe movement that collectives cross when GPU-Direct staging
// competes with the online task) — the latter is why wait-all backends,
// whose fixed graphs keep routing through the victim, lose more than
// AdapCC, which relays around non-ready workers.
type Interference struct {
	// LevelPct is the online task's CPU utilisation, 0–400 (%).
	LevelPct float64
	// ResampleEvery is the victim re-selection period (paper: 5 min).
	ResampleEvery time.Duration

	rng       *rand.Rand
	fab       *fabric.Fabric
	graph     *topology.Graph
	byServer  map[int][]int
	victims   map[int]bool
	nextPick  time.Duration
	resamples int
}

// NewInterference builds an interference schedule over a cluster.
func NewInterference(c *topology.Cluster, levelPct float64, rng *rand.Rand) *Interference {
	inf := &Interference{
		LevelPct:      levelPct,
		ResampleEvery: 5 * time.Minute,
		rng:           rng,
		byServer:      make(map[int][]int),
		victims:       make(map[int]bool),
	}
	rank := 0
	for si, srv := range c.Servers {
		for range srv.GPUs {
			inf.byServer[si] = append(inf.byServer[si], rank)
			rank++
		}
	}
	return inf
}

// AttachFabric makes the schedule also degrade victims' GPU↔NIC host
// paths on the live fabric.
func (inf *Interference) AttachFabric(fab *fabric.Fabric) {
	inf.fab = fab
	inf.graph = fab.Graph()
}

// slowdownPerLevel converts the CPU interference level into a compute
// slowdown: at 400% utilisation a victim's iteration takes ~1.3× longer
// (cache and memory-bandwidth contention on the affinity socket).
const slowdownPerLevel = 0.08 / 100

// Slowdown returns the current compute multiplier for a rank, resampling
// victims if the window elapsed.
func (inf *Interference) Slowdown(now time.Duration, rank int) float64 {
	if inf == nil || inf.LevelPct <= 0 {
		return 1
	}
	for now >= inf.nextPick {
		inf.resample()
		inf.nextPick += inf.ResampleEvery
	}
	if inf.victims[rank] {
		return 1 + slowdownPerLevel*inf.LevelPct
	}
	return 1
}

func (inf *Interference) resample() {
	inf.resamples++
	old := inf.victims
	inf.victims = make(map[int]bool)
	for _, ranks := range inf.byServer {
		n := inf.rng.Intn(3) // 0–2 victims per server
		perm := inf.rng.Perm(len(ranks))
		for i := 0; i < n && i < len(ranks); i++ {
			inf.victims[ranks[perm[i]]] = true
		}
	}
	if inf.fab == nil {
		return
	}
	// Host-path contention is sharper than the compute slowdown: the
	// online task and the staging copies fight for the same memory
	// bandwidth, so the victim's PCIe path degrades ~4× faster.
	slow := 1 + 4*slowdownPerLevel*inf.LevelPct
	for r := range old {
		if !inf.victims[r] {
			inf.setHostPathScale(r, 1)
		}
	}
	for r := range inf.victims {
		inf.setHostPathScale(r, 1/slow)
	}
}

// setHostPathScale rescales a victim GPU's PCIe edges to/from its NICs.
func (inf *Interference) setHostPathScale(rank int, scale float64) {
	gid, ok := inf.graph.GPUByRank(rank)
	if !ok {
		return
	}
	for _, e := range inf.graph.Edges() {
		if e.Type != topology.LinkPCIe {
			continue
		}
		if e.From == gid || e.To == gid {
			inf.fab.SetScale(e.ID, scale)
		}
	}
}

// Config drives one training run.
type Config struct {
	Workload Workload
	Env      *backend.Env
	Cluster  *topology.Cluster
	Driver   Driver
	// Iterations to run.
	Iterations int
	// BatchPerGPU defaults to the workload's RefBatch. The global batch
	// (BatchPerGPU × initial world size) stays constant after faults —
	// survivors' per-GPU batch grows (data-loader redistribution).
	BatchPerGPU int
	// Interference (optional) slows victim workers.
	Interference *Interference
	// ReprofileEvery triggers Reprofile every N iterations (0 = never).
	ReprofileEvery int
	// Reprofile blocks training while the backend reconstructs its
	// communication graph (AdapCC's profiling period hook).
	Reprofile func(done func())
	// OnIteration, when set, observes each completed iteration.
	OnIteration func(i int, stats IterStats)
	// DeadAfter maps a rank to the iteration at which it crashes: from
	// then on it never reports ready. Only meaningful with the adaptive
	// driver, whose coordinator excludes it as faulty; a wait-all
	// backend would hang (which is exactly the paper's point about
	// NCCL).
	DeadAfter map[int]int
	// ReviveAfter maps a rank to the iteration at which it rejoins after
	// a crash (elastic scale-up, Sec. IV-C(2)): the trainer readmits it
	// through the driver and it computes again from that iteration. The
	// data loader re-redistributes, shrinking survivors' per-GPU batch
	// back. Requires a driver implementing Readmitter.
	ReviveAfter map[int]int
	// HealReadmit leaves re-admission to an external healing path (e.g.
	// AdaptiveDriver.EnableHealing): ReviveAfter still gates when a
	// revived rank's compute returns, but the trainer stops calling
	// Readmit itself — the rank rejoins the group only when the health
	// monitor promotes its hardware.
	HealReadmit bool
	// Seed drives the compute-noise streams.
	Seed int64
}

// IterStats is one iteration's timing breakdown.
type IterStats struct {
	// Spread is maxReady − minReady (straggler gap).
	Spread time.Duration
	// Exec is the pure communication execution time.
	Exec time.Duration
	// Comm is wait + execution, the paper's "communication time"
	// measure of Fig. 14 (from the first ready worker to completion).
	Comm time.Duration
	// Total is the full iteration time (compute + comm).
	Total time.Duration
}

// WaitRatio is the Fig. 3b metric: straggler wait over execution time.
func (s IterStats) WaitRatio() float64 {
	if s.Exec <= 0 {
		return 0
	}
	return s.Spread.Seconds() / s.Exec.Seconds()
}

// Stats aggregates a training run.
type Stats struct {
	Iters       []IterStats
	Makespan    time.Duration
	GlobalBatch int
}

// Throughput returns samples/second (Fig. 16/17 metric).
func (s *Stats) Throughput() float64 {
	if len(s.Iters) == 0 || s.Makespan <= 0 {
		return 0
	}
	return float64(s.GlobalBatch) * float64(len(s.Iters)) / s.Makespan.Seconds()
}

// MeanComm returns the average per-iteration communication time.
func (s *Stats) MeanComm() time.Duration {
	if len(s.Iters) == 0 {
		return 0
	}
	var sum time.Duration
	for _, it := range s.Iters {
		sum += it.Comm
	}
	return sum / time.Duration(len(s.Iters))
}

// WaitRatios returns the per-iteration wait ratios (for CDFs).
func (s *Stats) WaitRatios() []float64 {
	out := make([]float64, len(s.Iters))
	for i, it := range s.Iters {
		out[i] = it.WaitRatio()
	}
	return out
}

// Trainer runs the iteration loop on the simulation engine.
type Trainer struct {
	cfg   Config
	rng   *rand.Rand
	stats *Stats
	start time.Duration
}

// Option configures New, in the package-wide With* functional-option
// style (see doc.go of internal/comm for the convention).
type Option func(*Config)

// WithBatchPerGPU overrides the per-GPU batch (default: the workload's
// reference batch).
func WithBatchPerGPU(n int) Option {
	return func(c *Config) { c.BatchPerGPU = n }
}

// WithInterference slows victim workers with the given schedule.
func WithInterference(inf *Interference) Option {
	return func(c *Config) { c.Interference = inf }
}

// WithReprofile blocks training every `every` iterations while reprofile
// runs (AdapCC's profiling-period hook; call done to resume).
func WithReprofile(every int, reprofile func(done func())) Option {
	return func(c *Config) { c.ReprofileEvery, c.Reprofile = every, reprofile }
}

// WithOnIteration observes each completed iteration.
func WithOnIteration(f func(i int, stats IterStats)) Option {
	return func(c *Config) { c.OnIteration = f }
}

// WithDeadAfter crashes each rank at the given iteration.
func WithDeadAfter(deaths map[int]int) Option {
	return func(c *Config) { c.DeadAfter = deaths }
}

// WithReviveAfter rejoins each crashed rank at the given iteration
// (elastic scale-up; requires a driver implementing Readmitter).
func WithReviveAfter(revivals map[int]int) Option {
	return func(c *Config) { c.ReviveAfter = revivals }
}

// WithHealReadmit leaves re-admission of revived ranks to an external
// healing path instead of a scripted Readmit.
func WithHealReadmit() Option {
	return func(c *Config) { c.HealReadmit = true }
}

// WithSeed seeds the compute-noise streams.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Seed = seed }
}

// New builds a trainer for the workload on the environment:
//
//	tr, err := train.New(w, env, cl, driver, 30, train.WithSeed(7))
func New(w Workload, env *backend.Env, cl *topology.Cluster, d Driver, iterations int, options ...Option) (*Trainer, error) {
	cfg := Config{Workload: w, Env: env, Cluster: cl, Driver: d, Iterations: iterations}
	for _, o := range options {
		o(&cfg)
	}
	if cfg.Env == nil || cfg.Cluster == nil || cfg.Driver == nil {
		return nil, fmt.Errorf("train: missing env, cluster or driver")
	}
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("train: non-positive iteration count")
	}
	if cfg.BatchPerGPU <= 0 {
		cfg.BatchPerGPU = cfg.Workload.RefBatch
	}
	if cfg.Interference != nil && cfg.Interference.fab == nil {
		cfg.Interference.AttachFabric(cfg.Env.Fabric)
	}
	return &Trainer{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Start launches the run; onDone receives the aggregated stats. All work
// happens on the environment's engine.
func (t *Trainer) Start(onDone func(*Stats)) {
	world := t.cfg.Driver.Alive()
	t.stats = &Stats{
		GlobalBatch: t.cfg.BatchPerGPU * len(world),
		Iters:       make([]IterStats, 0, t.cfg.Iterations),
	}
	t.start = t.cfg.Env.Engine.Now()
	t.iterate(0, onDone)
}

func (t *Trainer) iterate(i int, onDone func(*Stats)) {
	if i >= t.cfg.Iterations {
		t.stats.Makespan = t.cfg.Env.Engine.Now() - t.start
		onDone(t.stats)
		return
	}
	if t.cfg.ReprofileEvery > 0 && t.cfg.Reprofile != nil && i > 0 && i%t.cfg.ReprofileEvery == 0 {
		t.cfg.Reprofile(func() { t.runIteration(i, onDone) })
		return
	}
	t.runIteration(i, onDone)
}

// Readmitter is the optional driver capability behind Config.ReviveAfter:
// returning a previously excluded worker to the group without a restart.
type Readmitter interface {
	Readmit(rank int)
}

func (t *Trainer) runIteration(i int, onDone func(*Stats)) {
	eng := t.cfg.Env.Engine
	if rd, ok := t.cfg.Driver.(Readmitter); ok && !t.cfg.HealReadmit {
		for r, ri := range t.cfg.ReviveAfter {
			if i >= ri {
				rd.Readmit(r) // idempotent
			}
		}
	}
	alive := t.cfg.Driver.Alive()
	if len(alive) == 0 {
		t.stats.Makespan = eng.Now() - t.start
		onDone(t.stats)
		return
	}
	// Data-loader redistribution: constant global batch.
	perGPU := (t.stats.GlobalBatch + len(alive) - 1) / len(alive)

	iterStart := eng.Now()
	readyAt := make(map[int]time.Duration, len(alive))
	var minReady, maxReady time.Duration
	first := true
	for _, r := range alive {
		if deadIter, dead := t.cfg.DeadAfter[r]; dead && i >= deadIter {
			if reviveIter, revives := t.cfg.ReviveAfter[r]; !revives || i < reviveIter {
				continue // crashed: never becomes ready
			}
		}
		model, err := t.cfg.Cluster.ModelOfRank(r)
		if err != nil {
			panic(fmt.Sprintf("train: rank %d: %v", r, err))
		}
		slow := t.cfg.Interference.Slowdown(eng.Now(), r)
		d := t.cfg.Workload.ComputeTime(model, perGPU, t.rng, slow)
		readyAt[r] = d
		if first || d < minReady {
			minReady = d
		}
		if d > maxReady {
			maxReady = d
		}
		first = false
	}
	t.cfg.Driver.Begin(readyAt, func(exec time.Duration) {
		now := eng.Now()
		it := IterStats{
			Spread: maxReady - minReady,
			Exec:   exec,
			Comm:   now - iterStart - minReady,
			Total:  now - iterStart,
		}
		t.stats.Iters = append(t.stats.Iters, it)
		if t.cfg.OnIteration != nil {
			t.cfg.OnIteration(i, it)
		}
		t.iterate(i+1, onDone)
	})
}
