// Benchmarks regenerating every figure of the paper's evaluation, plus
// ablations of AdapCC's individual design choices. One iteration of each
// Benchmark regenerates the corresponding figure end-to-end on the
// simulated testbed; the benchmark reports key cells of the figure as
// custom metrics so `go test -bench` output doubles as a results table.
//
// Run everything:  go test -bench=. -benchmem
// One figure:      go test -bench=BenchmarkFig12AllReduce
package adapcc

import (
	"fmt"
	"testing"
	"time"

	"adapcc/internal/backend"
	"adapcc/internal/baseline/nccl"
	"adapcc/internal/cluster"
	"adapcc/internal/collective"
	"adapcc/internal/core"
	"adapcc/internal/experiments"
	"adapcc/internal/payload"
	"adapcc/internal/profile"
	"adapcc/internal/relay"
	"adapcc/internal/strategy"
	"adapcc/internal/synth"
	"adapcc/internal/topology"
	"adapcc/internal/train"
)

// benchCfg keeps the figure benchmarks fast enough to loop under
// `go test -bench` while preserving every shape the tests assert.
func benchCfg() experiments.Config {
	return experiments.Config{Seed: 1, Bytes: 32 << 20, Quick: true}
}

// runFigure executes one experiment b.N times and reports selected cells.
func runFigure(b *testing.B, id string, report func(*experiments.Table, *testing.B)) {
	b.Helper()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = experiments.Run(id, benchCfg())
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	if report != nil && tab != nil {
		report(tab, b)
	}
}

func metric(b *testing.B, tab *experiments.Table, row, col, name string) {
	if v, ok := tab.Value(row, col); ok {
		b.ReportMetric(v, name)
	}
}

func BenchmarkFig01CloudTrace(b *testing.B) {
	runFigure(b, "fig1", func(tab *experiments.Table, b *testing.B) {
		worst := 100.0
		for _, r := range tab.Rows {
			if r.Values[0] < worst {
				worst = r.Values[0]
			}
		}
		b.ReportMetric(worst, "worst-bw-%")
	})
}

func BenchmarkFig03bWaitRatio(b *testing.B) {
	runFigure(b, "fig3b", func(tab *experiments.Table, b *testing.B) {
		metric(b, tab, "heterogeneous (2xV100+2xA100)", "p50", "heter-p50")
		metric(b, tab, "homogeneous (4xA100)", "p50", "homo-p50")
	})
}

func BenchmarkFig11Reduce(b *testing.B) {
	runFigure(b, "fig11", func(tab *experiments.Table, b *testing.B) {
		metric(b, tab, tab.Rows[0].Label, "AdapCC", "adapcc-GB/s")
		metric(b, tab, tab.Rows[0].Label, "NCCL", "nccl-GB/s")
	})
}

func BenchmarkFig12AllReduce(b *testing.B) {
	// Allocation guard: phantom payloads (the benchCfg default) must keep
	// allocs/op at chunk-metadata scale, and the dense scratch pool's
	// high-water mark is reported so regressions in buffer recycling show
	// up in the bench table.
	payload.ResetPoolStats()
	b.ReportAllocs()
	runFigure(b, "fig12", func(tab *experiments.Table, b *testing.B) {
		metric(b, tab, tab.Rows[0].Label, "AdapCC", "adapcc-GB/s")
		metric(b, tab, tab.Rows[0].Label, "NCCL", "nccl-GB/s")
		b.ReportMetric(float64(payload.PoolStats().Peak), "pool-peak-bufs")
	})
}

func BenchmarkFig13AlltoAll(b *testing.B) {
	runFigure(b, "fig13", func(tab *experiments.Table, b *testing.B) {
		metric(b, tab, tab.Rows[0].Label, "AdapCC", "adapcc-GB/s")
		metric(b, tab, tab.Rows[0].Label, "NCCL", "nccl-GB/s")
	})
}

func BenchmarkFig14TrainingComm(b *testing.B) {
	runFigure(b, "fig14", func(tab *experiments.Table, b *testing.B) {
		// Report the heterogeneous RDMA VGG16 speed-up, the headline cell.
		for _, r := range tab.Rows {
			if r.Label == "VGG16/heter/rdma" {
				b.ReportMetric(r.Values[2], "vgg16-heter-speedup")
			}
		}
	})
}

func BenchmarkFig15RelayProb(b *testing.B) {
	runFigure(b, "fig15", nil)
}

func BenchmarkFig16GPT2Batch(b *testing.B) {
	runFigure(b, "fig16", func(tab *experiments.Table, b *testing.B) {
		best := 0.0
		for _, r := range tab.Rows {
			if r.Values[2] > best {
				best = r.Values[2]
			}
		}
		b.ReportMetric(best, "best-improvement-%")
	})
}

func BenchmarkFig17ViTBatch(b *testing.B) {
	runFigure(b, "fig17", func(tab *experiments.Table, b *testing.B) {
		best := 0.0
		for _, r := range tab.Rows {
			if r.Values[2] > best {
				best = r.Values[2]
			}
		}
		b.ReportMetric(best, "best-improvement-%")
	})
}

func BenchmarkFig18aVolatile(b *testing.B) {
	runFigure(b, "fig18a", func(tab *experiments.Table, b *testing.B) {
		b.ReportMetric(tab.Rows[len(tab.Rows)-1].Values[2], "reduction-%-at-max-x")
	})
}

func BenchmarkFig18bInterference(b *testing.B) {
	runFigure(b, "fig18b", func(tab *experiments.Table, b *testing.B) {
		b.ReportMetric(tab.Rows[len(tab.Rows)-1].Values[2], "speedup-at-400%")
	})
}

func BenchmarkFig19aParallelism(b *testing.B) {
	runFigure(b, "fig19a", func(tab *experiments.Table, b *testing.B) {
		metric(b, tab, "M=4", "speedup", "m4-speedup")
	})
}

func BenchmarkFig19bAccuracy(b *testing.B) {
	runFigure(b, "fig19b", func(tab *experiments.Table, b *testing.B) {
		metric(b, tab, "AdapCC", "final", "adapcc-final-acc")
		metric(b, tab, "Relay Async", "final", "async-final-acc")
	})
}

func BenchmarkFig19cReconstruction(b *testing.B) {
	runFigure(b, "fig19c", func(tab *experiments.Table, b *testing.B) {
		b.ReportMetric(tab.Rows[len(tab.Rows)-1].Values[5], "saved-%")
	})
}

func BenchmarkFig19dRPCDelay(b *testing.B) {
	runFigure(b, "fig19d", func(tab *experiments.Table, b *testing.B) {
		metric(b, tab, "p90", "latency-ms", "p90-ms")
	})
}

func BenchmarkSummarySpeedups(b *testing.B) {
	runFigure(b, "summary", func(tab *experiments.Table, b *testing.B) {
		metric(b, tab, "AllReduce (fig12)", "vs NCCL", "allreduce-vs-nccl")
	})
}

func BenchmarkScalingSweep(b *testing.B) {
	runFigure(b, "scaling", func(tab *experiments.Table, b *testing.B) {
		metric(b, tab, tab.Rows[0].Label, "AdapCC", "adapcc-2srv-GB/s")
		last := tab.Rows[len(tab.Rows)-1]
		b.ReportMetric(last.Values[0], "adapcc-maxscale-GB/s")
	})
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md Sec. 4): isolate each design choice's contribution.
// ---------------------------------------------------------------------------

// benchExec synthesises with the given request tweaks and measures one
// AllReduce on the executor.
func benchExec(b *testing.B, c *topology.Cluster, mutate func(*synth.Request)) time.Duration {
	b.Helper()
	env, err := backend.NewEnv(c, 1)
	if err != nil {
		b.Fatal(err)
	}
	req := synth.Request{Primitive: strategy.AllReduce, Bytes: 32 << 20, Root: -1}
	if mutate != nil {
		mutate(&req)
	}
	res, err := synth.Synthesize(synth.NewCosts(env.Graph, nil), req)
	if err != nil {
		b.Fatal(err)
	}
	var elapsed time.Duration
	err = env.Exec.Run(toOp(res, payload.Phantom, &elapsed))
	if err != nil {
		b.Fatal(err)
	}
	env.Engine.Run()
	return elapsed
}

// BenchmarkAblationChunkSize compares the searched chunk size against
// Blink's fixed 8 MB and a fixed tiny chunk.
func BenchmarkAblationChunkSize(b *testing.B) {
	c, err := cluster.Heterogeneous(topology.TransportRDMA, 4)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		searched := benchExec(b, c, nil)
		fixed8M := benchExec(b, c, func(r *synth.Request) { r.ChunkGrid = []int64{8 << 20} })
		fixed64K := benchExec(b, c, func(r *synth.Request) { r.ChunkGrid = []int64{64 << 10} })
		if i == b.N-1 {
			b.ReportMetric(float64(fixed8M)/float64(searched), "vs-fixed-8MB")
			b.ReportMetric(float64(fixed64K)/float64(searched), "vs-fixed-64KB")
		}
	}
}

// BenchmarkAblationAggregation compares hierarchical aggregation (leaders
// reduce locally before crossing the network) against forwarding all raw
// gradients to the root (a_{m,g} = 0 everywhere: flat star).
func BenchmarkAblationAggregation(b *testing.B) {
	c, err := cluster.Heterogeneous(topology.TransportRDMA, 4)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		agg := benchExec(b, c, func(r *synth.Request) { r.ForceVariant = "hier-star" })
		noAgg := benchExec(b, c, func(r *synth.Request) { r.ForceVariant = "flat-star" })
		if i == b.N-1 {
			b.ReportMetric(float64(noAgg)/float64(agg), "no-agg-slowdown")
		}
	}
}

// BenchmarkAblationRelayPolicy compares the break-even ski rental against
// always waiting and always proceeding under heterogeneous training.
func BenchmarkAblationRelayPolicy(b *testing.B) {
	cl, err := cluster.Heterogeneous(topology.TransportRDMA, 4)
	if err != nil {
		b.Fatal(err)
	}
	run := func(policy relay.Policy) time.Duration {
		env, err := backend.NewEnv(cl, 7)
		if err != nil {
			b.Fatal(err)
		}
		a, err := core.New(env)
		if err != nil {
			b.Fatal(err)
		}
		a.Setup(func() {})
		env.Engine.Run()
		d, err := train.NewAdaptiveDriver(a, env.AllRanks(), strategy.AllReduce, train.VGG16().ParamBytes, policy, nil)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := train.New(train.VGG16(), env, cl, d, 25, train.WithSeed(7))
		if err != nil {
			b.Fatal(err)
		}
		var stats *train.Stats
		tr.Start(func(s *train.Stats) { stats = s })
		env.Engine.Run()
		return stats.MeanComm()
	}
	for i := 0; i < b.N; i++ {
		breakEven := run(nil) // default ski rental
		alwaysWait := run(relay.AlwaysWait{})
		alwaysGo := run(relay.AlwaysProceed{})
		if i == b.N-1 {
			b.ReportMetric(float64(alwaysWait)/float64(breakEven), "wait-vs-skirental")
			b.ReportMetric(float64(alwaysGo)/float64(breakEven), "proceed-vs-skirental")
		}
	}
}

// BenchmarkAblationProfiling compares synthesis on profiled link values
// against NCCL-style nominal labels when a link has silently degraded.
func BenchmarkAblationProfiling(b *testing.B) {
	cl, err := cluster.Homogeneous(topology.TransportRDMA, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	run := func(skipProfiling bool) time.Duration {
		env, err := backend.NewEnv(cl, 9)
		if err != nil {
			b.Fatal(err)
		}
		// A degraded server the nominal labels know nothing about.
		env.Fabric.SetServerNetworkScale(2, 0.3)
		var copts []core.Option
		if skipProfiling {
			copts = append(copts, core.WithSkipProfiling())
		}
		a, err := core.New(env, copts...)
		if err != nil {
			b.Fatal(err)
		}
		a.Setup(func() {})
		env.Engine.Run()
		elapsed, err := backend.Measure(env, a, backend.Request{
			Primitive: strategy.AllReduce, Bytes: 64 << 20, Root: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return elapsed
	}
	for i := 0; i < b.N; i++ {
		profiled := run(false)
		nominal := run(true)
		if i == b.N-1 {
			b.ReportMetric(float64(nominal)/float64(profiled), "nominal-vs-profiled")
		}
	}
}

// BenchmarkAblationProfileRounds quantifies the measurement error of a
// naive all-pairs probing schedule versus the paper's interference-free
// multi-round schedule.
func BenchmarkAblationProfileRounds(b *testing.B) {
	cl, err := cluster.Homogeneous(topology.TransportRDMA, 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		worstErr := func(naive bool) float64 {
			env, err := backend.NewEnv(cl, 3)
			if err != nil {
				b.Fatal(err)
			}
			a, err := core.New(env)
			if err != nil {
				b.Fatal(err)
			}
			_ = a
			rep := profileOnce(b, env, naive)
			worst := 0.0
			for eid, m := range rep.ByEdge {
				e := env.Graph.Edge(eid)
				if !e.Type.Network() {
					continue
				}
				errFrac := 1 - m.StreamBps/e.BandwidthBps
				if errFrac > worst {
					worst = errFrac
				}
			}
			return worst * 100
		}
		scheduled := worstErr(false)
		naive := worstErr(true)
		if i == b.N-1 {
			b.ReportMetric(scheduled, "scheduled-worst-err-%")
			b.ReportMetric(naive, "naive-worst-err-%")
		}
	}
}

// BenchmarkAblationNCCLAlgorithm compares NCCL's two algorithms on the same
// fabric: the dual complementary binary trees (the paper's Sec. VI-B
// baseline) versus the bandwidth-optimal ring, at two and four servers.
// Rings win the multi-server bandwidth-bound regime (uniform per-NIC load);
// trees win at two servers, where both NICs are already balanced and the
// ring only adds chain depth.
func BenchmarkAblationNCCLAlgorithm(b *testing.B) {
	const bytes = 64 << 20
	run := func(servers int, ring bool) time.Duration {
		c, err := cluster.Homogeneous(topology.TransportRDMA, servers, 4)
		if err != nil {
			b.Fatal(err)
		}
		env, err := backend.NewEnv(c, 1)
		if err != nil {
			b.Fatal(err)
		}
		n := nccl.New(env)
		var st *strategy.Strategy
		if ring {
			st, err = n.RingStrategy(strategy.AllReduce, bytes, env.AllRanks(), -1)
		} else {
			st, err = n.BuildStrategy(strategy.AllReduce, bytes, env.AllRanks(), -1)
		}
		if err != nil {
			b.Fatal(err)
		}
		var elapsed time.Duration
		op := toOp(&synth.Result{Strategy: st}, payload.Phantom, &elapsed)
		op.SingleStream = true
		if err := env.Exec.Run(op); err != nil {
			b.Fatal(err)
		}
		env.Engine.Run()
		return elapsed
	}
	for i := 0; i < b.N; i++ {
		tree4 := run(4, false)
		ring4 := run(4, true)
		tree2 := run(2, false)
		ring2 := run(2, true)
		if i == b.N-1 {
			b.ReportMetric(float64(tree4)/float64(ring4), "ring-speedup-4srv")
			b.ReportMetric(float64(tree2)/float64(ring2), "ring-speedup-2srv")
		}
	}
}

// BenchmarkCompose measures the composed collectives built on the public
// API: AllGather (one multi-root broadcast op), ReduceScatter (one
// multi-root reduce op) and a Gather/Scatter pair, on the 2x4 homogeneous
// cluster.
func BenchmarkCompose(b *testing.B) {
	cl, err := cluster.Homogeneous(topology.TransportRDMA, 2, 4)
	if err != nil {
		b.Fatal(err)
	}
	const shardLen = 1 << 18 // 1 MiB shards
	for i := 0; i < b.N; i++ {
		env, err := backend.NewEnv(cl, 1)
		if err != nil {
			b.Fatal(err)
		}
		a, err := core.New(env)
		if err != nil {
			b.Fatal(err)
		}
		a.Setup(func() {})
		env.Engine.Run()
		ranks := env.AllRanks()

		shards := make(map[int][]float32, len(ranks))
		for _, r := range ranks {
			shards[r] = make([]float32, shardLen)
		}
		var agTime, rsTime, gsTime time.Duration
		if err := a.AllGather(nil, shards, func(_ map[int][]float32, d time.Duration) { agTime = d }); err != nil {
			b.Fatal(err)
		}
		env.Engine.Run()

		tensors := make(map[int][]float32, len(ranks))
		for _, r := range ranks {
			tensors[r] = make([]float32, shardLen*len(ranks))
		}
		if err := a.ReduceScatter(nil, tensors, func(_ map[int][]float32, d time.Duration) { rsTime = d }); err != nil {
			b.Fatal(err)
		}
		env.Engine.Run()

		start := env.Engine.Now()
		if err := a.Gather(nil, 0, shards, func(all []float32, _ time.Duration) {
			if err := a.Scatter(nil, 0, all, func(map[int][]float32, time.Duration) {
				gsTime = env.Engine.Now() - start
			}); err != nil {
				b.Fatal(err)
			}
		}); err != nil {
			b.Fatal(err)
		}
		env.Engine.Run()

		if i == b.N-1 {
			b.ReportMetric(agTime.Seconds()*1e3, "allgather-ms")
			b.ReportMetric(rsTime.Seconds()*1e3, "reducescatter-ms")
			b.ReportMetric(gsTime.Seconds()*1e3, "gather+scatter-ms")
		}
	}
}

// BenchmarkDetect measures topology-inference cost (paper: ~1.2 s of
// virtual time, constant in job scale because servers probe concurrently).
// Reported in virtual milliseconds; wall time is the simulation cost.
func BenchmarkDetect(b *testing.B) {
	for _, servers := range []int{2, 6} {
		servers := servers
		b.Run(fmt.Sprintf("%dsrv", servers), func(b *testing.B) {
			cl, err := cluster.Homogeneous(topology.TransportRDMA, servers, 4)
			if err != nil {
				b.Fatal(err)
			}
			var virtual time.Duration
			for i := 0; i < b.N; i++ {
				env, err := backend.NewEnv(cl, 1)
				if err != nil {
					b.Fatal(err)
				}
				a, err := core.New(env)
				if err != nil {
					b.Fatal(err)
				}
				virtual = a.InitTime()
			}
			b.ReportMetric(virtual.Seconds()*1e3, "virtual-ms")
		})
	}
}

// BenchmarkProfile measures the profiling period (training blocks while it
// runs — the "profile" column of Fig. 19c) at two job scales.
func BenchmarkProfile(b *testing.B) {
	for _, servers := range []int{2, 6} {
		servers := servers
		b.Run(fmt.Sprintf("%dsrv", servers), func(b *testing.B) {
			cl, err := cluster.Homogeneous(topology.TransportRDMA, servers, 4)
			if err != nil {
				b.Fatal(err)
			}
			var virtual time.Duration
			for i := 0; i < b.N; i++ {
				env, err := backend.NewEnv(cl, 1)
				if err != nil {
					b.Fatal(err)
				}
				rep := profileOnce(b, env, false)
				virtual = rep.Duration()
			}
			b.ReportMetric(virtual.Seconds()*1e3, "virtual-ms")
		})
	}
}

// BenchmarkSynthesize measures raw strategy-synthesis cost at testbed scale.
func BenchmarkSynthesize(b *testing.B) {
	cl, err := cluster.Testbed(topology.TransportRDMA)
	if err != nil {
		b.Fatal(err)
	}
	g, err := cl.LogicalGraph()
	if err != nil {
		b.Fatal(err)
	}
	costs := synth.NewCosts(g, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Synthesize(costs, synth.Request{
			Primitive: strategy.AllReduce, Bytes: 512 << 20, Root: -1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutor measures the event-driven executor's wall cost for one
// 24-rank AllReduce (simulation throughput, not simulated time).
func BenchmarkExecutor(b *testing.B) {
	cl, err := cluster.Testbed(topology.TransportRDMA)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		env, err := backend.NewEnv(cl, 1)
		if err != nil {
			b.Fatal(err)
		}
		res, err := synth.Synthesize(synth.NewCosts(env.Graph, nil), synth.Request{
			Primitive: strategy.AllReduce, Bytes: 8 << 20, Root: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		var elapsed time.Duration
		if err := env.Exec.Run(toOp(res, payload.Phantom, &elapsed)); err != nil {
			b.Fatal(err)
		}
		env.Engine.Run()
	}
}

// helpers ---------------------------------------------------------------

// toOp wraps a synthesised strategy in an Op running in the given payload
// mode (benchmarks default to Phantom: identical timeline, no tensor data).
func toOp(res *synth.Result, mode payload.Mode, elapsed *time.Duration) collective.Op {
	return collective.Op{
		Strategy: res.Strategy,
		Mode:     mode,
		OnDone:   func(r collective.Result) { *elapsed = r.Elapsed },
	}
}

func profileOnce(b *testing.B, env *backend.Env, naive bool) *profile.Report {
	b.Helper()
	var rep *profile.Report
	profile.New(env.Fabric, profile.Options{NaiveSchedule: naive}).Run(func(r *profile.Report) { rep = r })
	env.Engine.Run()
	if rep == nil {
		b.Fatal("profiling never completed")
	}
	return rep
}
