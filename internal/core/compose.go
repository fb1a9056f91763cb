package core

import (
	"fmt"
	"sort"
	"time"

	"adapcc/internal/backend"
	"adapcc/internal/collective"
	"adapcc/internal/strategy"
)

// AllGather gathers each rank's shard into every rank: the result of rank
// r is the concatenation of all shards in rank order. It runs as ONE
// multi-root Broadcast assembly (synth.MultiRoot): n out-trees, the one
// rooted at rank i carrying shard i, executed as a single op — a single
// synthesised strategy, a single setup, a single completion. With
// verification enabled the assembly is lowered to IR and proven to deliver
// every shard everywhere before running.
//
// shards maps rank → its shard; every shard must have equal length.
// onDone receives rank → concatenated tensor and the elapsed time.
// Options (comm group, traffic class, relays) apply to the whole op.
func (a *AdapCC) AllGather(ranks []int, shards map[int][]float32, onDone func(map[int][]float32, time.Duration), opts ...backend.RunOption) error {
	ranks, shardLen, err := validateShards(a, ranks, shards)
	if err != nil {
		return fmt.Errorf("core: allgather %w", err)
	}
	cfg := backend.BuildRunConfig(opts)
	totalLen := shardLen * len(ranks)
	res, err := a.multiRootStrategy(strategy.Broadcast, int64(totalLen)*4, ranks, cfg)
	if err != nil {
		return fmt.Errorf("core: allgather: %w", err)
	}

	// Each rank's full-size input carries its own shard at its own slot;
	// sub-collective i (rooted at ranks[i], spanning the i-th partition)
	// broadcasts exactly that slice.
	inputs := make(map[int][]float32, len(ranks))
	for slot, r := range ranks {
		in := make([]float32, totalLen)
		copy(in[slot*shardLen:(slot+1)*shardLen], shards[r])
		inputs[r] = in
	}
	start := a.env.Engine.Now()
	op := collective.Op{
		Strategy: res.Strategy,
		Inputs:   inputs,
		Class:    cfg.Class,
		OnDone: func(res collective.Result) {
			results := make(map[int][]float32, len(ranks))
			for _, r := range ranks {
				out := res.Outputs[r]
				if out == nil {
					// The executor may elide a root's self-delivery; its own
					// input already holds every locally-rooted shard.
					out = inputs[r]
				}
				results[r] = out
			}
			if onDone != nil {
				onDone(results, a.env.Engine.Now()-start)
			}
		},
	}
	applyPartial(&op, cfg, ranks)
	return a.env.Exec.Run(op)
}

// ReduceScatter reduces the full tensors element-wise and leaves each
// rank with its own shard of the sum (rank i gets the i-th of len(ranks)
// equal slices). It runs as ONE multi-root Reduce assembly: n in-trees,
// the one rooted at rank i reducing shard i, executed as a single op. The
// tensor length must be divisible by the rank count.
func (a *AdapCC) ReduceScatter(ranks []int, tensors map[int][]float32, onDone func(map[int][]float32, time.Duration), opts ...backend.RunOption) error {
	ranks, total, err := validateTensors(a, ranks, tensors)
	if err != nil {
		return fmt.Errorf("core: reducescatter %w", err)
	}
	if total%len(ranks) != 0 {
		return fmt.Errorf("core: tensor length %d not divisible by %d ranks", total, len(ranks))
	}
	shardLen := total / len(ranks)
	cfg := backend.BuildRunConfig(opts)
	res, err := a.multiRootStrategy(strategy.Reduce, int64(total)*4, ranks, cfg)
	if err != nil {
		return fmt.Errorf("core: reducescatter: %w", err)
	}

	start := a.env.Engine.Now()
	op := collective.Op{
		Strategy: res.Strategy,
		Inputs:   tensors,
		Class:    cfg.Class,
		OnDone: func(res collective.Result) {
			results := make(map[int][]float32, len(ranks))
			for slot, r := range ranks {
				out := res.Outputs[r]
				if out == nil {
					// Root-output-elided case: fall back to the rank's own
					// contribution, mirroring AllGather's guard.
					out = tensors[r]
				}
				results[r] = out[slot*shardLen : (slot+1)*shardLen]
			}
			if onDone != nil {
				onDone(results, a.env.Engine.Now()-start)
			}
		},
	}
	applyPartial(&op, cfg, ranks)
	return a.env.Exec.Run(op)
}

// AlltoAll transposes the rank-indexed blocks: rank i's tensor is split
// into len(ranks) blocks and rank j ends up with the concatenation of
// every rank's j-th block (the MoE dispatch/combine pattern). This is a
// thin wrapper over Run with the first-class AlltoAll primitive.
func (a *AdapCC) AlltoAll(ranks []int, tensors map[int][]float32, onDone func(map[int][]float32, time.Duration), opts ...backend.RunOption) error {
	ranks, total, err := validateTensors(a, ranks, tensors)
	if err != nil {
		return fmt.Errorf("core: alltoall %w", err)
	}
	start := a.env.Engine.Now()
	return a.Run(backend.Request{
		Primitive: strategy.AlltoAll,
		Bytes:     int64(total) * 4,
		Ranks:     ranks,
		Root:      -1,
		Inputs:    tensors,
		OnDone: func(res collective.Result) {
			if onDone != nil {
				onDone(res.Outputs, a.env.Engine.Now()-start)
			}
		},
	}, opts...)
}

// applyPartial mirrors Run's relay handling for the first-class composed
// ops: with relays attached, only the request's ranks contribute data.
func applyPartial(op *collective.Op, cfg backend.RunConfig, ranks []int) {
	if cfg.Relays == nil {
		return
	}
	active := make(map[int]bool, len(ranks))
	for _, r := range ranks {
		active[r] = true
	}
	op.Active = active
}

// validateTensors normalises the rank list and checks equal full-tensor
// lengths.
func validateTensors(a *AdapCC, ranks []int, tensors map[int][]float32) ([]int, int, error) {
	if ranks == nil {
		ranks = a.env.AllRanks()
	}
	ranks = append([]int(nil), ranks...)
	sort.Ints(ranks)
	if len(ranks) < 2 {
		return nil, 0, fmt.Errorf("needs >= 2 ranks")
	}
	total := -1
	for _, r := range ranks {
		in, ok := tensors[r]
		if !ok {
			return nil, 0, fmt.Errorf("rank %d has no tensor", r)
		}
		if total == -1 {
			total = len(in)
		} else if len(in) != total {
			return nil, 0, fmt.Errorf("tensor lengths differ")
		}
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("empty tensors")
	}
	return ranks, total, nil
}
