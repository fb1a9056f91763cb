package main

import (
	"fmt"
	"math/rand"
	"time"

	"adapcc/internal/metrics"
)

// opResult is what one verified op reports. Everything but the counters
// is a pure function of the workload, its seed and the op index: the
// harness fingerprints it to prove runs of one seed bit-identical.
type opResult struct {
	virtual  time.Duration // simulated time the op took
	events   uint64        // simulation events fired
	bytes    int64         // per-rank payload bytes (Algo.bw numerator)
	ttr      time.Duration // simulated time to recover (fault workloads)
	tail     time.Duration // worst steady-state iteration (congestion)
	checksum uint64        // data-plane checksum of the op's outputs
	// sums are per-op counters taken from the program's results, summed
	// over the traced ops; peaks are maxima over them.
	sums  map[string]float64
	peaks map[string]float64
}

func (r opResult) fingerprint() string {
	return fmt.Sprintf("v=%d e=%d b=%d ttr=%d tail=%d ck=%016x",
		int64(r.virtual), r.events, r.bytes, int64(r.ttr), int64(r.tail), r.checksum)
}

func (r *opResult) add(name string, v float64) {
	if r.sums == nil {
		r.sums = map[string]float64{}
	}
	r.sums[name] += v
}

func (r *opResult) peak(name string, v float64) {
	if r.peaks == nil {
		r.peaks = map[string]float64{}
	}
	if v > r.peaks[name] {
		r.peaks[name] = v
	}
}

// workload is one benchmark scenario. The harness calls setup once per
// set-up repeat on a fresh value, then run for ops 0, 1, 2, ... until the
// measuring time is over.
type workload interface {
	// spec describes the inputs the seed generated; fingerprints are only
	// compared between runs with equal specs.
	spec() string
	setup(t *tracer) error
	// run executes op i, verifies it and reports it. A verification
	// failure is an error.
	run(i int, t *tracer) (opResult, error)
	// setMetrics installs (nil removes) the registry the program exports
	// its counters to.
	setMetrics(reg *metrics.Registry)
}

// scaled is implemented by workloads on the sharded engine: runAt runs op
// i with the given worker count, untraced, for the parallel-gain and
// worker-invariance check.
type scaled interface {
	runAt(i, workers int, t *tracer) (opResult, error)
}

// plan is a workload's fixed shape.
type plan struct {
	// warm ops run before timing starts (strategy caches fill, lazy
	// set-up finishes); their results still count for the virtual metrics.
	warm int
	// prefix is how many leading ops the virtual metrics are computed
	// over. A run always completes at least this many.
	prefix int
	// period is the block length after which op inputs repeat (0: they
	// never repeat). Every repeat must reproduce its first occurrence.
	period int
}

type workloadDef struct {
	name string
	why  string
	plan plan
	make func(cfg config) workload
}

var workloads = []workloadDef{
	{
		name: "testbed-dense",
		why:  "paper testbed, 24 ranks, dense collectives with a warm strategy cache: collective, payload, fabric and device, synthesis bypassed",
		plan: plan{warm: denseBlock, prefix: denseBlock, period: denseBlock},
		make: func(cfg config) workload { return newDense(cfg) },
	},
	{
		name: "recover-256",
		why:  "256 ranks, one fault-detect-patch-verify-readmit cycle per op in phantom mode: core, synth, ir and topology control plane",
		plan: plan{warm: 1, prefix: 4},
		make: func(cfg config) workload { return newRecover(cfg) },
	},
	{
		name: "congest-512",
		why:  "512-rank fat-tree under a permanent PFC storm with adaptive rerouting: fabric congestion, grayfail and ECMP on the sharded engine",
		plan: plan{warm: 1, prefix: scaleBlock, period: scaleBlock},
		make: func(cfg config) workload { return newCongest(cfg) },
	},
	{
		name: "sweep-1024",
		why:  "1024-rank rail sweep with a ring hop killed at t=0: the scale tier's own recovery stack on the raw sharded engine",
		plan: plan{warm: 1, prefix: scaleBlock, period: scaleBlock},
		make: func(cfg config) workload { return newSweep(cfg) },
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// mix64 is splitmix64's finalizer; subSeed derives independent per-op
// seeds from the workload seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func subSeed(seed int64, k int) int64 {
	return int64(mix64(uint64(seed)<<20^uint64(k)) >> 1)
}

func seededRand(seed int64, salt int) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, 1<<16+salt)))
}
