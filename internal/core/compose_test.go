package core

import (
	"testing"
	"time"

	"adapcc/internal/backend"
	"adapcc/internal/cluster"
	"adapcc/internal/collective"
	"adapcc/internal/fabric"
	"adapcc/internal/metrics"
	"adapcc/internal/strategy"
	"adapcc/internal/topology"
)

// classShareSeen reports whether any link recorded a bandwidth share for
// the named traffic class.
func classShareSeen(reg *metrics.Registry, class string) bool {
	for _, f := range reg.Snapshot().Families {
		if f.Name != "adapcc_link_class_share" {
			continue
		}
		for _, s := range f.Series {
			if s.Labels["class"] == class {
				return true
			}
		}
	}
	return false
}

// TestGroupedCollectivesCarryClass is the regression for the dropped
// RunOption threading: every composed and point-to-point API must honour
// backend.WithGroup, so a grouped call's traffic lands in its group's
// traffic class on the fabric. Before the fix AllGather, ReduceScatter,
// Send, Gather and Scatter silently ignored their options.
func TestGroupedCollectivesCarryClass(t *testing.T) {
	c, err := cluster.Homogeneous(topology.TransportRDMA, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	env, a := newInstance(t, c)
	setup(t, env, a)
	reg := metrics.New()
	a.SetMetrics(reg)
	ranks := env.AllRanks()

	const shardLen = 1 << 14
	shards := make(map[int][]float32, len(ranks))
	tensors := make(map[int][]float32, len(ranks))
	for _, r := range ranks {
		shards[r] = make([]float32, shardLen)
		tensors[r] = make([]float32, shardLen*len(ranks))
	}

	calls := []struct {
		name string
		call func(opt backend.RunOption) error
	}{
		{"allgather", func(opt backend.RunOption) error {
			return a.AllGather(ranks, shards, nil, opt)
		}},
		{"reducescatter", func(opt backend.RunOption) error {
			return a.ReduceScatter(ranks, tensors, nil, opt)
		}},
		{"alltoall", func(opt backend.RunOption) error {
			return a.AlltoAll(ranks, tensors, nil, opt)
		}},
		{"send", func(opt backend.RunOption) error {
			return a.Send(ranks[0], ranks[1], shards[ranks[0]], nil, opt)
		}},
		{"gather", func(opt backend.RunOption) error {
			return a.Gather(ranks, ranks[0], shards, nil, opt)
		}},
		{"scatter", func(opt backend.RunOption) error {
			return a.Scatter(ranks, ranks[0], tensors[ranks[0]], nil, opt)
		}},
	}
	for _, tc := range calls {
		class := env.Fabric.NewClass(fabric.Class{Name: "grp-" + tc.name, Weight: 2})
		if err := tc.call(backend.WithGroup("g-"+tc.name, class)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	env.Engine.Run()
	for _, tc := range calls {
		if !classShareSeen(reg, "grp-"+tc.name) {
			t.Errorf("%s: no fabric traffic carried class grp-%s — its RunOption was dropped", tc.name, tc.name)
		}
	}
}

// TestWithVerifyEndToEnd turns the verifier on for a live instance: every
// synthesised strategy — single-root, rootless and multi-root — must pass
// verification, and every decision must be counted in
// adapcc_ir_verify_total{result="accept"}.
func TestWithVerifyEndToEnd(t *testing.T) {
	c, err := cluster.Homogeneous(topology.TransportRDMA, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	env, a := newInstance(t, c, WithVerify())
	reg := metrics.New()
	a.SetMetrics(reg)
	setup(t, env, a)
	ranks := env.AllRanks()

	const bytes = 1 << 20
	done := 0
	if err := a.Run(backend.Request{
		Primitive: strategy.AllReduce, Bytes: bytes, Root: -1,
		Inputs: backend.MakeInputs(ranks, bytes),
		OnDone: func(collective.Result) { done++ },
	}); err != nil {
		t.Fatal(err)
	}
	shards := make(map[int][]float32, len(ranks))
	tensors := make(map[int][]float32, len(ranks))
	for _, r := range ranks {
		shards[r] = make([]float32, 1<<14)
		tensors[r] = make([]float32, len(ranks)<<14)
	}
	if err := a.AllGather(ranks, shards, func(map[int][]float32, time.Duration) { done++ }); err != nil {
		t.Fatal(err)
	}
	if err := a.ReduceScatter(ranks, tensors, func(map[int][]float32, time.Duration) { done++ }); err != nil {
		t.Fatal(err)
	}
	env.Engine.Run()
	if done != 3 {
		t.Fatalf("%d of 3 verified collectives completed", done)
	}

	var accepts, rejects float64
	for _, f := range reg.Snapshot().Families {
		if f.Name != "adapcc_ir_verify_total" {
			continue
		}
		for _, s := range f.Series {
			switch s.Labels["result"] {
			case "accept":
				accepts = s.Value
			case "reject":
				rejects = s.Value
			}
		}
	}
	if accepts < 3 {
		t.Errorf("adapcc_ir_verify_total{result=accept} = %v, want >= 3", accepts)
	}
	if rejects != 0 {
		t.Errorf("adapcc_ir_verify_total{result=reject} = %v, want 0", rejects)
	}
}
