package main

import (
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// The benchmark's time metrics are normalised to a reference host. Just
// before each timed op (and each set-up), the harness times refKernel, a
// fixed computation in plain Go with the simulator's profile: many small
// allocations, map inserts, a sort and pointer chasing, with the garbage
// collector running. An op's normalised time is its CPU time multiplied by
// refNominal ÷ the kernel's CPU time measured around it. On a shared host
// whose speed drifts for minutes at a time (another tenant on the sibling
// hyperthread, memory-bandwidth contention), the op and the kernel slow
// down together and the quotient stays put; the raw CPU times are printed
// beside it.
//
// refNominal is about the kernel's CPU time on an idle two-vCPU x86-64 VM
// (go1.24), so normalised times there read close to raw ones.
const refNominal = 14 * time.Millisecond

// refSink keeps the kernel's result alive so it is not optimised away.
var refSink int

type refNode struct {
	next *refNode
	vals []int
}

// refKernel does the same work on every call: a pointer graph, map inserts
// and a sort, then rounds of short-lived allocations that keep the
// collector busy.
func refKernel() int {
	rng := rand.New(rand.NewSource(1))
	nodes := make([]*refNode, 20000)
	for i := range nodes {
		nodes[i] = &refNode{vals: make([]int, 8)}
	}
	for i := range nodes {
		nodes[i].next = nodes[rng.Intn(len(nodes))]
	}
	m := map[int]int{}
	for i := 0; i < 20000; i++ {
		m[rng.Int()] = i
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	s, n := keys[0], nodes[0]
	for i := 0; i < 200000; i++ {
		s += n.vals[i&7] + i
		n = n.next
	}
	for round := 0; round < 6; round++ {
		nodes := make([]*refNode, 10000)
		for i := range nodes {
			nodes[i] = &refNode{vals: make([]int, 12)}
		}
		for i := range nodes {
			nodes[i].next = nodes[rng.Intn(len(nodes))]
		}
		n := nodes[0]
		for i := 0; i < 20000; i++ {
			s += n.vals[i%12]
			n = n.next
		}
	}
	return s
}

// refCPU runs the kernel between two collections, so it neither inherits
// garbage nor leaves any to whatever is timed next, and returns its CPU
// time.
func refCPU() time.Duration {
	runtime.GC()
	cpu0 := processCPU()
	refSink += refKernel()
	d := processCPU() - cpu0
	runtime.GC()
	return d
}

// refWindow is how many kernel runs on each side of an op its speed
// factor is taken over: the median of the 2*refWindow+1 runs around it.
// The host's speed changes over seconds; one kernel run is a few
// milliseconds and noisier than the drift it tracks.
const refWindow = 3

// normalise scales each CPU time cpu[i] (ms) by refNominal ÷ the median of
// the kernel times ref (ms) in the window around i.
func normalise(cpu, ref []float64) []float64 {
	out := make([]float64, len(cpu))
	for i := range cpu {
		lo, hi := max(0, i-refWindow), min(len(ref), i+refWindow+1)
		if r := median(ref[lo:hi]); r > 0 {
			out[i] = cpu[i] * ms(refNominal) / r
		}
	}
	return out
}
