// Package backend defines the common interface through which the
// evaluation harness drives AdapCC and the baseline communication systems
// (NCCL, MSCCL, Blink) over the same simulated fabric, so every comparison
// in the reproduced figures runs identical workloads on identical hardware
// models.
package backend

import (
	"fmt"
	"time"

	"adapcc/internal/collective"
	"adapcc/internal/device"
	"adapcc/internal/fabric"
	"adapcc/internal/metrics"
	"adapcc/internal/payload"
	"adapcc/internal/sim"
	"adapcc/internal/strategy"
	"adapcc/internal/topology"
)

// Request describes one collective invocation.
type Request struct {
	Primitive strategy.Primitive
	// Bytes is the per-GPU tensor size.
	Bytes int64
	// Ranks are the participating workers (nil = every GPU).
	Ranks []int
	// Root for Reduce/Broadcast; ignored otherwise.
	Root int
	// Mode selects the data plane (Dense default). Timing-only sweeps use
	// Phantom: no float32 tensors are materialised and the measured
	// timeline is identical to the Dense run of the same seed.
	Mode payload.Mode
	// Inputs holds each participating rank's tensor. Dense mode only;
	// backends that only need timing may be driven with synthetic inputs
	// from MakeInputs, or with Mode set to Phantom and no Inputs at all.
	Inputs map[int][]float32
	// OnDone receives the result.
	OnDone func(collective.Result)
}

// Backend is a collective communication system under test.
type Backend interface {
	// Name identifies the system in printed tables.
	Name() string
	// Run starts the collective; completion is signalled via
	// req.OnDone on the simulation engine. Run validates the request
	// (ValidateIn) before touching the fabric. Options customise one
	// invocation; backends without the corresponding machinery (e.g.
	// relays on the fixed-graph baselines) ignore them.
	Run(req Request, opts ...RunOption) error
}

// Env bundles the shared simulated hardware a backend runs on.
type Env struct {
	Cluster *topology.Cluster
	Graph   *topology.Graph
	Engine  *sim.Engine
	Fabric  *fabric.Fabric
	GPUs    map[int]*device.GPU
	Exec    *collective.Executor
	// Metrics is the registry installed by SetMetrics (nil = disabled).
	Metrics *metrics.Registry
}

// SetMetrics installs (or, with nil, removes) a metrics registry across the
// whole hardware environment: every fabric link, every GPU and the
// collective executor record into it.
func (e *Env) SetMetrics(reg *metrics.Registry) {
	e.Metrics = reg
	e.Fabric.SetMetrics(reg)
	e.Exec.SetMetrics(reg)
	for _, g := range e.GPUs {
		g.SetMetrics(reg)
	}
}

// NewEnv builds the hardware environment for a cluster.
func NewEnv(c *topology.Cluster, seed int64) (*Env, error) {
	g, err := c.LogicalGraph()
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine(seed)
	fab := fabric.New(eng, g)
	gpus := make(map[int]*device.GPU, c.NumGPUs())
	for _, id := range g.GPUs() {
		n := g.Node(id)
		model, err := c.ModelOfRank(n.Rank)
		if err != nil {
			return nil, err
		}
		gpus[n.Rank] = device.New(eng, model, n.Rank)
	}
	return &Env{
		Cluster: c,
		Graph:   g,
		Engine:  eng,
		Fabric:  fab,
		GPUs:    gpus,
		Exec:    collective.NewExecutor(fab, gpus),
	}, nil
}

// AllRanks returns every GPU rank of the environment.
func (e *Env) AllRanks() []int {
	out := make([]int, 0, len(e.GPUs))
	for _, id := range e.Graph.GPUs() {
		out = append(out, e.Graph.Node(id).Rank)
	}
	return out
}

// MakeInputs builds deterministic per-rank tensors for a request.
func MakeInputs(ranks []int, bytes int64) map[int][]float32 {
	elems := int(bytes / 4)
	in := make(map[int][]float32, len(ranks))
	for _, r := range ranks {
		v := make([]float32, elems)
		for i := range v {
			v[i] = float32(r+1) + float32(i%7)
		}
		in[r] = v
	}
	return in
}

// Measure synchronously runs one collective on a backend and returns the
// elapsed virtual time (it drains the engine). Phantom requests skip input
// materialisation entirely. Options pass through to Backend.Run.
func Measure(env *Env, b Backend, req Request, opts ...RunOption) (time.Duration, error) {
	if req.Inputs == nil && req.Mode == payload.Dense {
		ranks := req.Ranks
		if ranks == nil {
			ranks = env.AllRanks()
		}
		req.Inputs = MakeInputs(ranks, req.Bytes)
	}
	var elapsed time.Duration = -1
	userDone := req.OnDone
	req.OnDone = func(r collective.Result) {
		elapsed = r.Elapsed
		if userDone != nil {
			userDone(r)
		}
	}
	if err := b.Run(req, opts...); err != nil {
		return 0, err
	}
	env.Engine.Run()
	if elapsed < 0 {
		return 0, fmt.Errorf("backend %s never completed", b.Name())
	}
	return elapsed, nil
}

// AlgoBandwidth runs a collective and reports the algorithm bandwidth in
// bytes/second (Sec. VI-C metric).
func AlgoBandwidth(env *Env, b Backend, req Request, opts ...RunOption) (float64, error) {
	elapsed, err := Measure(env, b, req, opts...)
	if err != nil {
		return 0, err
	}
	return collective.AlgoBandwidthBps(req.Bytes, elapsed), nil
}
