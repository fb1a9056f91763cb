// Package comm implements communicator groups: named collectives domains
// over rank subsets, sharing one AdapCC instance and one simulated fabric.
//
// Hybrid-parallel training (Megatron-style DP × TP × PP) runs many
// communicators at once — a tensor-parallel all-reduce inside each model
// shard, a data-parallel gradient all-reduce across shards, point-to-point
// pipeline traffic between stages. These overlap in time and contend for
// the same NICs. The NCCL answer is one communicator per group with no
// cross-communicator arbitration; AdapCC's controller (paper Sec. III) can
// do better because it owns the whole fabric view.
//
// A Manager carves a world into Groups. Each group gets
//
//   - its own rank subset and synthesized strategy — strategies are cached
//     in the shared AdapCC cache, keyed by participant set, so two groups
//     with the same shape never solve twice;
//   - its own fabric traffic class (priority + weight), which the
//     contention-aware chunk scheduler in internal/fabric uses to arbitrate
//     shared links: higher priority strictly wins, equal priorities split
//     bandwidth by weight (weighted fair queueing at chunk granularity,
//     no mid-chunk preemption);
//   - its own metrics: adapcc_comm_inflight, adapcc_comm_collectives_total
//     and adapcc_comm_wire_bytes_total, labelled by group.
//
// Spec describes the hybrid decomposition and Groups() expands it with the
// Megatron rank layout (tensor-parallel ranks contiguous, data-parallel
// ranks at stride TP, pipeline stages at stride DP·TP) and default traffic
// classes: TP latency-critical above PP above bulk DP.
//
// # Option style
//
// Constructors across this codebase take With* functional options rather
// than option structs:
//
//	a, _ := core.New(env, core.WithM(4), core.WithSkipProfiling())
//	a.Run(req, backend.WithRelays(1, 3), backend.WithFastPath())
//	a.RunResilient(req, onDone, core.WithRecovery(rec), core.WithHeal(h))
//	tr, _ := train.New(workload, env, c, driver, 30, train.WithSeed(7))
//
// The convention: a constructor or entry point takes a variadic ...Option;
// each With* option is a function mutating the package's (still exported,
// for inspection) options struct; zero options mean the documented
// defaults. Each entry point has this one form, with no struct-typed twin;
// the opt-in healing and gray-failure subsystems take their options struct
// directly (core.AdapCC.EnableHealing, EnableGrayfail). See ExampleManager
// for the group API end to end.
package comm
