package train

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"adapcc/internal/backend"
	"adapcc/internal/cluster"
	"adapcc/internal/core"
	"adapcc/internal/strategy"
	"adapcc/internal/synth"
	"adapcc/internal/topology"
)

func setupAdapCC(t *testing.T, c *topology.Cluster) (*backend.Env, *core.AdapCC) {
	t.Helper()
	env, err := backend.NewEnv(c, 44)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.New(env)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	a.Setup(func() { done = true })
	env.Engine.Run()
	if !done {
		t.Fatal("setup incomplete")
	}
	return env, a
}

func runTraining(t *testing.T, cfg Config) *Stats {
	t.Helper()
	tr, err := New(cfg.Workload, cfg.Env, cfg.Cluster, cfg.Driver, cfg.Iterations,
		func(c *Config) { *c = cfg })
	if err != nil {
		t.Fatal(err)
	}
	var stats *Stats
	tr.Start(func(s *Stats) { stats = s })
	cfg.Env.Engine.Run()
	if stats == nil {
		t.Fatal("training never completed")
	}
	return stats
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func TestComputeTimeScaling(t *testing.T) {
	w := GPT2()
	rng := rand.New(rand.NewSource(1))
	a100 := w.ComputeTime(topology.GPUA100, 16, rng, 1)
	// Same batch on a V100 must take roughly 1/0.45 longer on average.
	var sumV, sumA float64
	for i := 0; i < 200; i++ {
		sumA += w.ComputeTime(topology.GPUA100, 16, rng, 1).Seconds()
		sumV += w.ComputeTime(topology.GPUV100, 16, rng, 1).Seconds()
	}
	ratio := sumV / sumA
	if ratio < 1.9 || ratio > 2.6 {
		t.Errorf("V100/A100 compute ratio = %.2f, want ≈1/0.45", ratio)
	}
	// Batch scaling is linear.
	big := w.ComputeTime(topology.GPUA100, 32, rand.New(rand.NewSource(1)), 1)
	if float64(big)/float64(a100) < 1.6 {
		t.Errorf("doubling batch scaled time only %.2fx", float64(big)/float64(a100))
	}
	// Slowdown multiplies.
	slow := w.ComputeTime(topology.GPUA100, 16, rand.New(rand.NewSource(1)), 1.5)
	base := w.ComputeTime(topology.GPUA100, 16, rand.New(rand.NewSource(1)), 1)
	if float64(slow)/float64(base) < 1.45 || float64(slow)/float64(base) > 1.55 {
		t.Errorf("slowdown factor not applied: %.2f", float64(slow)/float64(base))
	}
}

// TestFig3bWaitRatioShape reproduces the motivation measurement: GPT-2
// wait-time-ratio CDF medians — heterogeneous ≥ ~23%, homogeneous ≥ ~10%,
// and hetero clearly above homo.
func TestFig3bWaitRatioShape(t *testing.T) {
	run := func(c *topology.Cluster) []float64 {
		env, err := backend.NewEnv(c, 7)
		if err != nil {
			t.Fatal(err)
		}
		driver := NewWaitAllDriver(env, NCCLPlanner(env), strategy.AllReduce, GPT2().ParamBytes, env.AllRanks())
		stats := runTraining(t, Config{
			Workload: GPT2(), Env: env, Cluster: c, Driver: driver,
			Iterations: 120, BatchPerGPU: 16, Seed: 5,
		})
		return stats.WaitRatios()
	}
	homo, err := cluster.Homogeneous(topology.TransportRDMA, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	heter, err := cluster.Heterogeneous(topology.TransportRDMA, 4)
	if err != nil {
		t.Fatal(err)
	}
	homoMed := median(run(homo))
	heterMed := median(run(heter))
	t.Logf("wait ratio medians: homo=%.3f heter=%.3f", homoMed, heterMed)
	if homoMed < 0.05 {
		t.Errorf("homogeneous median wait ratio %.3f too small (paper: >0.10)", homoMed)
	}
	if heterMed < 0.18 {
		t.Errorf("heterogeneous median wait ratio %.3f too small (paper: >0.23)", heterMed)
	}
	if heterMed <= homoMed {
		t.Errorf("hetero median (%.3f) should exceed homo (%.3f)", heterMed, homoMed)
	}
}

// TestAdaptiveBeatsWaitAllOnHetero reproduces the Fig. 14 shape: AdapCC's
// communication time beats NCCL's, with a bigger win in the heterogeneous
// setting.
func TestAdaptiveBeatsWaitAllOnHetero(t *testing.T) {
	commTime := func(c *topology.Cluster, adaptive bool) time.Duration {
		env, a := setupAdapCC(t, c)
		var driver Driver
		if adaptive {
			d, err := NewAdaptiveDriver(a, env.AllRanks(), strategy.AllReduce, VGG16().ParamBytes, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			driver = d
		} else {
			driver = NewWaitAllDriver(env, NCCLPlanner(env), strategy.AllReduce, VGG16().ParamBytes, env.AllRanks())
		}
		stats := runTraining(t, Config{
			Workload: VGG16(), Env: env, Cluster: c, Driver: driver,
			Iterations: 60, Seed: 9,
		})
		return stats.MeanComm()
	}
	heter, err := cluster.Heterogeneous(topology.TransportRDMA, 4)
	if err != nil {
		t.Fatal(err)
	}
	adapcc := commTime(heter, true)
	ncclT := commTime(heter, false)
	t.Logf("hetero VGG16 comm: adapcc=%v nccl=%v (%.2fx)", adapcc, ncclT, float64(ncclT)/float64(adapcc))
	if adapcc >= ncclT {
		t.Errorf("AdapCC comm (%v) not better than NCCL (%v) in heterogeneous training", adapcc, ncclT)
	}
}

func TestInterferenceResamplingAndBounds(t *testing.T) {
	c, err := cluster.Homogeneous(topology.TransportRDMA, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	inf := NewInterference(c, 400, rand.New(rand.NewSource(2)))
	// At t=0 the first window is sampled.
	sawVictim := false
	for now := time.Duration(0); now < time.Hour; now += 5 * time.Minute {
		for r := 0; r < 16; r++ {
			s := inf.Slowdown(now, r)
			if s < 1 || s > 1.4 {
				t.Fatalf("slowdown %v out of bounds", s)
			}
			if s > 1 {
				sawVictim = true
			}
		}
	}
	if !sawVictim {
		t.Error("no victims over an hour of 400% interference")
	}
	if inf.resamples < 10 {
		t.Errorf("resampled %d times over an hour, want ≥10", inf.resamples)
	}
	// Nil and zero-level schedules are inert.
	var none *Interference
	if none.Slowdown(0, 0) != 1 {
		t.Error("nil interference not neutral")
	}
}

// TestFig18bDirection: higher interference widens AdapCC's advantage.
func TestInterferenceHelpsAdaptive(t *testing.T) {
	c, err := cluster.Homogeneous(topology.TransportRDMA, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	speedup := func(level float64) float64 {
		comm := func(adaptive bool) time.Duration {
			env, a := setupAdapCC(t, c)
			inf := NewInterference(c, level, rand.New(rand.NewSource(3)))
			var driver Driver
			if adaptive {
				d, err := NewAdaptiveDriver(a, env.AllRanks(), strategy.AllReduce, VGG16().ParamBytes, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				driver = d
			} else {
				driver = NewWaitAllDriver(env, NCCLPlanner(env), strategy.AllReduce, VGG16().ParamBytes, env.AllRanks())
			}
			stats := runTraining(t, Config{
				Workload: VGG16(), Env: env, Cluster: c, Driver: driver,
				Iterations: 50, Seed: 13, Interference: inf,
			})
			return stats.MeanComm()
		}
		return float64(comm(false)) / float64(comm(true))
	}
	low := speedup(0)
	high := speedup(400)
	t.Logf("comm speedup over NCCL: level0=%.2fx level400=%.2fx", low, high)
	// The paper's curve rises to 1.49×; in our idealised fabric the
	// compute-side interference delay dominates the (cheap) collective,
	// so the robust reproduced claim is that AdapCC retains a clear
	// advantage at every interference level (see EXPERIMENTS.md for the
	// deviation discussion).
	if low < 1.05 {
		t.Errorf("speedup without interference %.2fx too small", low)
	}
	if high < 1.05 {
		t.Errorf("speedup at 400%% interference %.2fx too small", high)
	}
}

func TestFaultInjectionExcludesAndRedistributes(t *testing.T) {
	c, err := cluster.Homogeneous(topology.TransportRDMA, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	env, a := setupAdapCC(t, c)
	var faulted []int
	d, err := NewAdaptiveDriver(a, env.AllRanks(), strategy.AllReduce, ViT().ParamBytes, nil,
		func(f []int) { faulted = append(faulted, f...) })
	if err != nil {
		t.Fatal(err)
	}
	stats := runTraining(t, Config{
		Workload: ViT(), Env: env, Cluster: c, Driver: d,
		Iterations: 12, Seed: 31,
		DeadAfter: map[int]int{3: 4},
	})
	if len(stats.Iters) != 12 {
		t.Fatalf("completed %d iterations, want 12 (training must continue through the fault)", len(stats.Iters))
	}
	if len(faulted) != 1 || faulted[0] != 3 {
		t.Fatalf("faulted = %v, want [3]", faulted)
	}
	if got := len(d.Alive()); got != 3 {
		t.Fatalf("alive = %d, want 3", got)
	}
}

func TestAccuracyCurves(t *testing.T) {
	sim := DefaultAccuracySim()
	iters := 4000
	full := make([]float64, iters)
	dropped := make([]float64, iters)
	rng := rand.New(rand.NewSource(8))
	for i := range full {
		full[i] = 1
		dropped[i] = 1
		if rng.Float64() < 0.4 { // straggler iterations drop ~15% of workers
			dropped[i] = 0.85
		}
	}
	adapcc := sim.Curve(full, 1)
	ncclCurve := sim.Curve(full, 2)
	async := sim.Curve(dropped, 3)

	fa, fn, fd := FinalAccuracy(adapcc, 200), FinalAccuracy(ncclCurve, 200), FinalAccuracy(async, 200)
	t.Logf("final acc: adapcc=%.3f nccl=%.3f relay-async=%.3f", fa, fn, fd)
	if d := fa - fn; d > 0.01 || d < -0.01 {
		t.Errorf("AdapCC (%.3f) and NCCL (%.3f) should converge identically", fa, fn)
	}
	if fd >= fa-0.01 {
		t.Errorf("Relay Async (%.3f) should converge below AdapCC (%.3f)", fd, fa)
	}
	// Monotone-ish rise: late accuracy above early.
	if adapcc[iters-1] < adapcc[iters/10] {
		t.Error("accuracy curve not rising")
	}
}

func TestThroughputAndStats(t *testing.T) {
	c, err := cluster.Homogeneous(topology.TransportRDMA, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	env, err := backend.NewEnv(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := NewWaitAllDriver(env, NCCLPlanner(env), strategy.AllReduce, ViT().ParamBytes, env.AllRanks())
	stats := runTraining(t, Config{
		Workload: ViT(), Env: env, Cluster: c, Driver: d,
		Iterations: 10, BatchPerGPU: 64, Seed: 2,
	})
	if stats.GlobalBatch != 256 {
		t.Errorf("global batch = %d, want 256", stats.GlobalBatch)
	}
	if stats.Throughput() <= 0 {
		t.Error("no throughput")
	}
	if stats.MeanComm() <= 0 {
		t.Error("no comm time")
	}
	for _, it := range stats.Iters {
		if it.Total < it.Comm || it.Comm < it.Exec {
			t.Fatalf("inconsistent iteration stats: %+v", it)
		}
	}
}

func TestReprofileHookInvoked(t *testing.T) {
	c, err := cluster.Homogeneous(topology.TransportRDMA, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	env, a := setupAdapCC(t, c)
	d, err := NewAdaptiveDriver(a, env.AllRanks(), strategy.AllReduce, ViT().ParamBytes, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	reprofiles := 0
	runTraining(t, Config{
		Workload: ViT(), Env: env, Cluster: c, Driver: d,
		Iterations: 10, Seed: 2,
		ReprofileEvery: 3,
		Reprofile: func(done func()) {
			reprofiles++
			a.Reconstruct(func(time.Duration) { done() })
		},
	})
	if reprofiles != 3 { // at iterations 3, 6, 9
		t.Errorf("reprofiles = %d, want 3", reprofiles)
	}
}

func TestTrainerValidation(t *testing.T) {
	if _, err := New(Workload{}, nil, nil, nil, 1); err == nil {
		t.Error("empty config accepted")
	}
}

func TestMoEWorkloadUsesAlltoAll(t *testing.T) {
	if MoE().Collective != strategy.AlltoAll {
		t.Error("MoE should dispatch tokens with AlltoAll")
	}
	c, err := cluster.Homogeneous(topology.TransportRDMA, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	env, err := backend.NewEnv(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := NewWaitAllDriver(env, MSCCLPlanner(env), strategy.AlltoAll, MoE().ParamBytes, env.AllRanks())
	stats := runTraining(t, Config{
		Workload: MoE(), Env: env, Cluster: c, Driver: d,
		Iterations: 5, Seed: 2,
	})
	if len(stats.Iters) != 5 {
		t.Fatalf("iterations = %d", len(stats.Iters))
	}
}

// TestBucketOverlapHidesCommunication exercises the DDP communication-hook
// path (paper Sec. VI-A): submitting gradient buckets to the ordered work
// queue during the backward pass hides most of the AllReduce time behind
// compute, so the post-backward tail is far smaller than the full
// sequential communication.
func TestBucketOverlapHidesCommunication(t *testing.T) {
	c, err := cluster.Homogeneous(topology.TransportRDMA, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	env, a := setupAdapCC(t, c)
	q := a.NewQueue()
	w := VGG16()
	backward := 120 * time.Millisecond
	sched := NewBucketSchedule(w.ParamBytes, DefaultBucketBytes, backward)
	if len(sched.Buckets) != 22 { // ceil(528/25)
		t.Fatalf("buckets = %d, want 22", len(sched.Buckets))
	}
	var sum int64
	for _, b := range sched.Buckets {
		sum += b
	}
	if sum > w.ParamBytes || sum < w.ParamBytes-128 {
		t.Fatalf("bucket bytes sum %d vs params %d", sum, w.ParamBytes)
	}

	var tail, total time.Duration
	if err := RunBucketedIteration(a, q, sched, func(tl, tt time.Duration) { tail, total = tl, tt }); err != nil {
		t.Fatal(err)
	}
	env.Engine.Run()
	if total <= backward {
		t.Fatalf("total %v not beyond backward %v", total, backward)
	}

	// Reference: the same volume as one sequential post-backward AllReduce.
	seq, err := backend.Measure(env, a, backend.Request{
		Primitive: strategy.AllReduce, Bytes: w.ParamBytes, Root: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bucketed tail %v vs sequential allreduce %v (backward %v)", tail, seq, backward)
	if float64(tail) > 0.55*float64(seq) {
		t.Errorf("bucket overlap hid too little: tail %v vs sequential %v", tail, seq)
	}
}

func TestBucketedIterationValidation(t *testing.T) {
	c, err := cluster.Homogeneous(topology.TransportRDMA, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, a := setupAdapCC(t, c)
	if err := RunBucketedIteration(a, a.NewQueue(), BucketSchedule{}, nil); err == nil {
		t.Fatal("empty schedule accepted")
	}
}

func TestPlannersForAllBaselines(t *testing.T) {
	c, err := cluster.Heterogeneous(topology.TransportRDMA, 2)
	if err != nil {
		t.Fatal(err)
	}
	env, err := backend.NewEnv(c, 6)
	if err != nil {
		t.Fatal(err)
	}
	live := synth.NewLiveCosts(env.Fabric)
	for _, p := range []Planner{NCCLPlanner(env), MSCCLPlanner(env), BlinkPlanner(env)} {
		d, err := p.CommTime(live, strategy.AllReduce, 64<<20, env.AllRanks())
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if d <= 0 {
			t.Errorf("%s returned non-positive time", p.Name())
		}
	}
	// Blink rejects AlltoAll plans.
	if _, err := BlinkPlanner(env).CommTime(live, strategy.AlltoAll, 1<<20, env.AllRanks()); err == nil {
		t.Error("Blink AlltoAll plan accepted")
	}
}

func TestReviveRejoinsWithoutRestart(t *testing.T) {
	c, err := cluster.Homogeneous(topology.TransportRDMA, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	env, a := setupAdapCC(t, c)
	var faulted []int
	d, err := NewAdaptiveDriver(a, env.AllRanks(), strategy.AllReduce, ViT().ParamBytes, nil,
		func(f []int) { faulted = append(faulted, f...) })
	if err != nil {
		t.Fatal(err)
	}
	aliveAt := make(map[int]int)
	stats := runTraining(t, Config{
		Workload: ViT(), Env: env, Cluster: c, Driver: d,
		Iterations: 24, Seed: 31,
		DeadAfter:   map[int]int{3: 4},
		ReviveAfter: map[int]int{3: 14},
		OnIteration: func(i int, _ IterStats) { aliveAt[i] = len(d.Alive()) },
	})
	if len(stats.Iters) != 24 {
		t.Fatalf("completed %d iterations, want 24", len(stats.Iters))
	}
	if len(faulted) != 1 || faulted[0] != 3 {
		t.Fatalf("faulted = %v, want [3]", faulted)
	}
	// Excluded while dead, back to full strength after the revive.
	if aliveAt[12] != 3 {
		t.Errorf("alive at iteration 12 = %d, want 3 (rank 3 excluded)", aliveAt[12])
	}
	if aliveAt[23] != 4 {
		t.Errorf("alive at iteration 23 = %d, want 4 (rank 3 readmitted)", aliveAt[23])
	}
	if got := len(d.Alive()); got != 4 {
		t.Fatalf("alive after revive = %d, want 4", got)
	}
}

func TestReviveWithoutDriverSupportIsIgnored(t *testing.T) {
	// A wait-all driver has no Readmitter; ReviveAfter must be harmless.
	c, err := cluster.Homogeneous(topology.TransportRDMA, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	env, err := backend.NewEnv(c, 9)
	if err != nil {
		t.Fatal(err)
	}
	d := NewWaitAllDriver(env, NCCLPlanner(env), strategy.AllReduce, ViT().ParamBytes, env.AllRanks())
	stats := runTraining(t, Config{
		Workload: ViT(), Env: env, Cluster: c, Driver: d,
		Iterations:  5,
		Seed:        9,
		ReviveAfter: map[int]int{2: 3},
	})
	if len(stats.Iters) != 5 {
		t.Fatalf("completed %d iterations, want 5", len(stats.Iters))
	}
}
