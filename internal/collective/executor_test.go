package collective

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"adapcc/internal/cluster"
	"adapcc/internal/device"
	"adapcc/internal/fabric"
	"adapcc/internal/sim"
	"adapcc/internal/strategy"
	"adapcc/internal/synth"
	"adapcc/internal/topology"
)

// env bundles an executor over a cluster.
type env struct {
	eng   *sim.Engine
	fab   *fabric.Fabric
	ex    *Executor
	costs *synth.Costs
	c     *topology.Cluster
}

func newEnv(t *testing.T, c *topology.Cluster) *env {
	t.Helper()
	g, err := c.LogicalGraph()
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(11)
	fab := fabric.New(eng, g)
	gpus := make(map[int]*device.GPU)
	for _, id := range g.GPUs() {
		n := g.Node(id)
		model, err := c.ModelOfRank(n.Rank)
		if err != nil {
			t.Fatal(err)
		}
		gpus[n.Rank] = device.New(eng, model, n.Rank)
	}
	return &env{eng: eng, fab: fab, ex: NewExecutor(fab, gpus), costs: synth.NewCosts(g, nil), c: c}
}

func testbedEnv(t *testing.T) *env {
	t.Helper()
	c, err := cluster.Testbed(topology.TransportRDMA)
	if err != nil {
		t.Fatal(err)
	}
	return newEnv(t, c)
}

// pattern fills deterministic per-rank inputs.
func pattern(ranks []int, elems int) map[int][]float32 {
	in := make(map[int][]float32, len(ranks))
	for _, r := range ranks {
		v := make([]float32, elems)
		for i := range v {
			v[i] = float32(r+1) + float32(i%13)*0.5
		}
		in[r] = v
	}
	return in
}

func ranksOf(c *topology.Cluster) []int {
	out := make([]int, c.NumGPUs())
	for i := range out {
		out[i] = i
	}
	return out
}

func approxEqual(a, b float32) bool {
	diff := float64(a - b)
	return math.Abs(diff) < 1e-3
}

func sumOfActive(inputs map[int][]float32, active map[int]bool, elems int) []float32 {
	sum := make([]float32, elems)
	for r, v := range inputs {
		if active != nil && !active[r] {
			continue
		}
		for i := range v {
			sum[i] += v[i]
		}
	}
	return sum
}

func TestAllReduceCorrectness(t *testing.T) {
	e := testbedEnv(t)
	ranks := ranksOf(e.c)
	const bytes = 8 << 20
	res, err := synth.Synthesize(e.costs, synth.Request{
		Primitive: strategy.AllReduce, Bytes: bytes, Ranks: ranks, Root: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	inputs := pattern(ranks, elemsOf(bytes))
	want := sumOfActive(inputs, nil, elemsOf(bytes))

	var got Result
	if err := e.ex.Run(Op{Strategy: res.Strategy, Inputs: inputs, OnDone: func(r Result) { got = r }}); err != nil {
		t.Fatal(err)
	}
	e.eng.Run()
	if got.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	for _, r := range ranks {
		out := got.Outputs[r]
		if out == nil {
			t.Fatalf("rank %d got no output", r)
		}
		for i := range want {
			if !approxEqual(out[i], want[i]) {
				t.Fatalf("rank %d elem %d = %v, want %v", r, i, out[i], want[i])
			}
		}
	}
}

func TestReduceRootHoldsSum(t *testing.T) {
	e := testbedEnv(t)
	ranks := ranksOf(e.c)
	const bytes = 4 << 20
	res, err := synth.Synthesize(e.costs, synth.Request{
		Primitive: strategy.Reduce, Bytes: bytes, Ranks: ranks, Root: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	inputs := pattern(ranks, elemsOf(bytes))
	want := sumOfActive(inputs, nil, elemsOf(bytes))
	var got Result
	if err := e.ex.Run(Op{Strategy: res.Strategy, Inputs: inputs, OnDone: func(r Result) { got = r }}); err != nil {
		t.Fatal(err)
	}
	e.eng.Run()
	out := got.Outputs[0]
	if out == nil {
		t.Fatal("root got no output")
	}
	for i := range want {
		if !approxEqual(out[i], want[i]) {
			t.Fatalf("elem %d = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestBroadcastDeliversRootTensor(t *testing.T) {
	e := testbedEnv(t)
	ranks := ranksOf(e.c)
	const bytes = 4 << 20
	res, err := synth.Synthesize(e.costs, synth.Request{
		Primitive: strategy.Broadcast, Bytes: bytes, Ranks: ranks, Root: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	inputs := pattern(ranks, elemsOf(bytes))
	var got Result
	if err := e.ex.Run(Op{Strategy: res.Strategy, Inputs: inputs, OnDone: func(r Result) { got = r }}); err != nil {
		t.Fatal(err)
	}
	e.eng.Run()
	want := inputs[3]
	for _, r := range ranks {
		out := got.Outputs[r]
		if out == nil {
			t.Fatalf("rank %d got no output", r)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("rank %d elem %d = %v, want %v", r, i, out[i], want[i])
			}
		}
	}
}

func TestAlltoAllExchange(t *testing.T) {
	c, err := cluster.Homogeneous(topology.TransportRDMA, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, c)
	ranks := ranksOf(c)
	const bytes = 4 << 20
	res, err := synth.Synthesize(e.costs, synth.Request{
		Primitive: strategy.AlltoAll, Bytes: bytes, Ranks: ranks,
	})
	if err != nil {
		t.Fatal(err)
	}
	inputs := pattern(ranks, elemsOf(bytes))
	var got Result
	if err := e.ex.Run(Op{Strategy: res.Strategy, Inputs: inputs, OnDone: func(r Result) { got = r }}); err != nil {
		t.Fatal(err)
	}
	e.eng.Run()

	spans, err := partitionSpans(res.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	n := len(ranks)
	for _, recv := range ranks {
		out := got.Outputs[recv]
		if out == nil {
			t.Fatalf("rank %d got no output", recv)
		}
		for m := range spans {
			for _, send := range ranks {
				// Receiver slot `send` holds sender's slot `recv`.
				dst := equalBlock(spans[m], n, send)
				src := equalBlock(spans[m], n, recv)
				for k := 0; k < dst.Len(); k++ {
					want := inputs[send][src.Start+k]
					if out[dst.Start+k] != want {
						t.Fatalf("recv %d sub %d slot %d elem %d = %v, want %v",
							recv, m, send, k, out[dst.Start+k], want)
					}
				}
			}
			// The undivided tail stays local.
			tail := alltoallTail(spans[m], n)
			for k := tail.Start; k < tail.End; k++ {
				if out[k] != inputs[recv][k] {
					t.Fatalf("recv %d tail elem %d = %v, want local %v", recv, k, out[k], inputs[recv][k])
				}
			}
		}
	}
}

func TestAllReduceWithRelays(t *testing.T) {
	e := testbedEnv(t)
	// Ranks 5 and 13 are stragglers: active everywhere else; relays
	// assist. Every active rank must end with the sum over ACTIVE ranks
	// only (phase 2 catches the stragglers up later).
	all := ranksOf(e.c)
	active := make(map[int]bool)
	var ready []int
	for _, r := range all {
		if r == 5 || r == 13 {
			continue
		}
		active[r] = true
		ready = append(ready, r)
	}
	const bytes = 8 << 20
	res, err := synth.Synthesize(e.costs, synth.Request{
		Primitive: strategy.AllReduce, Bytes: bytes,
		Ranks: ready, Relays: []int{5, 13}, Root: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	inputs := pattern(all, elemsOf(bytes))
	want := sumOfActive(inputs, active, elemsOf(bytes))
	var got Result
	if err := e.ex.Run(Op{Strategy: res.Strategy, Inputs: inputs, Active: active, OnDone: func(r Result) { got = r }}); err != nil {
		t.Fatal(err)
	}
	e.eng.Run()
	for _, r := range ready {
		out := got.Outputs[r]
		if out == nil {
			t.Fatalf("active rank %d got no output", r)
		}
		for i := range want {
			if !approxEqual(out[i], want[i]) {
				t.Fatalf("rank %d elem %d = %v, want %v (sum over active only)", r, i, out[i], want[i])
			}
		}
	}
}

func TestAllReduceRandomizedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		servers := 1 + rng.Intn(3)
		gpus := 1 + rng.Intn(3)
		if servers*gpus < 2 {
			gpus = 2
		}
		var c *topology.Cluster
		var err error
		if trial%2 == 0 {
			c, err = cluster.Homogeneous(topology.TransportRDMA, servers, gpus)
		} else {
			c, err = cluster.Heterogeneous(topology.TransportTCP, gpus)
		}
		if err != nil {
			t.Fatal(err)
		}
		e := newEnv(t, c)
		ranks := ranksOf(c)
		bytes := int64((1 + rng.Intn(64)) * 64 * 1024)
		res, err := synth.Synthesize(e.costs, synth.Request{
			Primitive: strategy.AllReduce, Bytes: bytes, Ranks: ranks, Root: -1,
			M: 1 + rng.Intn(4),
		})
		if err != nil {
			t.Fatal(err)
		}
		inputs := pattern(ranks, elemsOf(bytes))
		want := sumOfActive(inputs, nil, elemsOf(bytes))
		var got Result
		if err := e.ex.Run(Op{Strategy: res.Strategy, Inputs: inputs, OnDone: func(r Result) { got = r }}); err != nil {
			t.Fatal(err)
		}
		e.eng.Run()
		for _, r := range ranks {
			out := got.Outputs[r]
			if out == nil {
				t.Fatalf("trial %d: rank %d got no output", trial, r)
			}
			for i := range want {
				if !approxEqual(out[i], want[i]) {
					t.Fatalf("trial %d: rank %d elem %d = %v, want %v", trial, r, i, out[i], want[i])
				}
			}
		}
	}
}

// TestTimingMatchesPredictor cross-validates the event-driven executor
// against the analytic Eq. 2–6 evaluator on a contention-free single-flow
// strategy (DESIGN.md invariant 3).
func TestTimingMatchesPredictor(t *testing.T) {
	c, err := cluster.Homogeneous(topology.TransportRDMA, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, c)
	g := e.fab.Graph()
	a, _ := g.GPUByRank(1)
	b, _ := g.GPUByRank(0)
	const bytes = 64 << 20
	st := &strategy.Strategy{
		Primitive:  strategy.Reduce,
		TotalBytes: bytes,
		SubCollectives: []strategy.SubCollective{{
			ID: 0, Bytes: bytes, ChunkBytes: 4 << 20, Root: 0,
			Flows: []strategy.Flow{{ID: 0, SrcRank: 1, DstRank: 0, Path: []topology.NodeID{a, b}}},
		}},
	}
	ev, err := synth.Evaluate(e.costs, st)
	if err != nil {
		t.Fatal(err)
	}
	inputs := pattern([]int{0, 1}, elemsOf(bytes))
	var got Result
	if err := e.ex.Run(Op{Strategy: st, Inputs: inputs, OnDone: func(r Result) { got = r }}); err != nil {
		t.Fatal(err)
	}
	e.eng.Run()
	// The executor additionally charges kernel launches and per-hop α
	// sequencing; allow 25% tolerance.
	ratio := float64(got.Elapsed) / float64(ev.Time)
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("executor %v vs predicted %v (ratio %.2f)", got.Elapsed, ev.Time, ratio)
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() (time.Duration, float32) {
		c, err := cluster.Heterogeneous(topology.TransportRDMA, 2)
		if err != nil {
			t.Fatal(err)
		}
		e := newEnv(t, c)
		ranks := ranksOf(c)
		const bytes = 2 << 20
		res, err := synth.Synthesize(e.costs, synth.Request{
			Primitive: strategy.AllReduce, Bytes: bytes, Ranks: ranks, Root: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		inputs := pattern(ranks, elemsOf(bytes))
		var got Result
		if err := e.ex.Run(Op{Strategy: res.Strategy, Inputs: inputs, OnDone: func(r Result) { got = r }}); err != nil {
			t.Fatal(err)
		}
		e.eng.Run()
		return got.Elapsed, got.Outputs[0][0]
	}
	e1, v1 := run()
	e2, v2 := run()
	if e1 != e2 || v1 != v2 {
		t.Fatalf("non-deterministic execution: (%v,%v) vs (%v,%v)", e1, v1, e2, v2)
	}
}

func TestRunValidation(t *testing.T) {
	e := testbedEnv(t)
	if err := e.ex.Run(Op{}); err == nil {
		t.Error("nil strategy accepted")
	}
	res, err := synth.Synthesize(e.costs, synth.Request{
		Primitive: strategy.AllReduce, Bytes: 1 << 20, Root: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Missing inputs.
	if err := e.ex.Run(Op{Strategy: res.Strategy}); err == nil {
		t.Error("missing inputs accepted")
	}
	// Wrong length.
	bad := map[int][]float32{}
	for _, r := range res.Strategy.Participants() {
		bad[r] = make([]float32, 7)
	}
	if err := e.ex.Run(Op{Strategy: res.Strategy, Inputs: bad}); err == nil {
		t.Error("short inputs accepted")
	}
	// All inactive.
	inputs := pattern(res.Strategy.Participants(), elemsOf(1<<20))
	if err := e.ex.Run(Op{Strategy: res.Strategy, Inputs: inputs, Active: map[int]bool{}}); err == nil {
		t.Error("empty active set accepted")
	}
}

func TestAlgoBandwidth(t *testing.T) {
	if got := AlgoBandwidthBps(1<<30, time.Second); got != float64(1<<30) {
		t.Errorf("AlgoBandwidthBps = %v", got)
	}
	if got := AlgoBandwidthBps(1, 0); got != 0 {
		t.Errorf("zero elapsed should give 0, got %v", got)
	}
}

func TestLayoutHelpers(t *testing.T) {
	p := span{Start: 100, End: 200}
	// Equal blocks of 100/3 = 33 with 1 tail element.
	for i := 0; i < 3; i++ {
		b := equalBlock(p, 3, i)
		if b.Len() != 33 {
			t.Errorf("block %d len = %d, want 33", i, b.Len())
		}
		if b.Start != 100+33*i {
			t.Errorf("block %d start = %d", i, b.Start)
		}
	}
	tail := alltoallTail(p, 3)
	if tail.Start != 199 || tail.End != 200 {
		t.Errorf("tail = %+v, want [199,200)", tail)
	}
	chunks := chunkSpans(span{Start: 0, End: 10}, 4)
	if len(chunks) != 3 || chunks[2].Len() != 2 {
		t.Errorf("chunkSpans = %+v", chunks)
	}
	if got := chunkSpans(span{}, 4); got != nil {
		t.Errorf("empty span chunks = %v", got)
	}
}

// Property: chunkSpans covers a span exactly, in order, without overlap.
func TestChunkSpansProperty(t *testing.T) {
	f := func(startRaw, lenRaw, chunkRaw uint16) bool {
		start := int(startRaw % 1000)
		length := int(lenRaw % 5000)
		chunk := int(chunkRaw%257) + 1
		s := span{Start: start, End: start + length}
		chunks := chunkSpans(s, chunk)
		pos := s.Start
		for _, c := range chunks {
			if c.Start != pos || c.Len() <= 0 || c.Len() > chunk {
				return false
			}
			pos = c.End
		}
		return pos == s.End
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: equalBlock slots are disjoint, in order, equal length, and with
// the tail they cover the partition exactly.
func TestEqualBlockProperty(t *testing.T) {
	f := func(lenRaw uint16, partsRaw uint8) bool {
		length := int(lenRaw % 4000)
		parts := int(partsRaw%23) + 1
		s := span{Start: 100, End: 100 + length}
		pos := s.Start
		for i := 0; i < parts; i++ {
			blk := equalBlock(s, parts, i)
			if blk.Start != pos || blk.Len() != length/parts {
				return false
			}
			pos = blk.End
		}
		tail := alltoallTail(s, parts)
		return tail.Start == pos && tail.End == s.End && tail.Len() < parts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteXMLParsedStrategy exercises the paper's full pipeline: the
// synthesizer emits the strategy as XML, the Communicator parses it back
// and executes it — results must be identical to executing the original.
func TestExecuteXMLParsedStrategy(t *testing.T) {
	c, err := cluster.Heterogeneous(topology.TransportRDMA, 2)
	if err != nil {
		t.Fatal(err)
	}
	const bytes = 4 << 20
	run := func(viaXML bool) (Result, time.Duration) {
		e := newEnv(t, c)
		res, err := synth.Synthesize(e.costs, synth.Request{
			Primitive: strategy.AllReduce, Bytes: bytes, Root: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Strategy
		if viaXML {
			data, err := st.MarshalXMLBytes()
			if err != nil {
				t.Fatal(err)
			}
			st, err = strategy.ParseXML(data)
			if err != nil {
				t.Fatal(err)
			}
		}
		inputs := pattern(st.Participants(), elemsOf(bytes))
		var got Result
		if err := e.ex.Run(Op{Strategy: st, Inputs: inputs, OnDone: func(r Result) { got = r }}); err != nil {
			t.Fatal(err)
		}
		e.eng.Run()
		return got, got.Elapsed
	}
	direct, dt := run(false)
	parsed, pt := run(true)
	if dt != pt {
		t.Fatalf("XML round trip changed timing: %v vs %v", dt, pt)
	}
	for r, out := range direct.Outputs {
		po := parsed.Outputs[r]
		if po == nil {
			t.Fatalf("rank %d missing after XML round trip", r)
		}
		for i := 0; i < len(out); i += 131 {
			if out[i] != po[i] {
				t.Fatalf("rank %d elem %d differs after XML round trip", r, i)
			}
		}
	}
}

// TestAlltoAllPartitionedLayout pins AlltoAll's block layout when
// synthesis splits the op into several sub-collectives (the testbed picks
// M=4 at these sizes): destination block q is [q·B, (q+1)·B) of the whole
// tensor with B = len/n, whatever the partitioning, and only the global
// tail of fewer than n elements stays local.
func TestAlltoAllPartitionedLayout(t *testing.T) {
	for _, bytes := range []int64{128 << 10, 256 << 10} {
		e := testbedEnv(t)
		ranks := ranksOf(e.c)
		res, err := synth.Synthesize(e.costs, synth.Request{
			Primitive: strategy.AlltoAll, Bytes: bytes, Ranks: ranks, Root: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if m := len(res.Strategy.SubCollectives); m < 2 {
			t.Fatalf("%d B: synthesis picked M=%d; the test needs a partitioned AlltoAll", bytes, m)
		}
		elems := elemsOf(bytes)
		inputs := pattern(ranks, elems)
		var got Result
		if err := e.ex.Run(Op{Strategy: res.Strategy, Inputs: inputs, OnDone: func(r Result) { got = r }}); err != nil {
			t.Fatal(err)
		}
		e.eng.Run()
		n := len(ranks)
		block := elems / n
		for ki, k := range ranks {
			out := got.Outputs[k]
			if out == nil {
				t.Fatalf("%d B: rank %d got no output", bytes, k)
			}
			for ji, j := range ranks {
				for i := 0; i < block; i++ {
					if want := inputs[j][ki*block+i]; out[ji*block+i] != want {
						t.Fatalf("%d B: rank %d elem %d = %v, want rank %d's elem %d (%v)",
							bytes, k, ji*block+i, out[ji*block+i], j, ki*block+i, want)
					}
				}
			}
			for i := n * block; i < elems; i++ {
				if out[i] != inputs[k][i] {
					t.Fatalf("%d B: rank %d tail elem %d = %v, want local %v", bytes, k, i, out[i], inputs[k][i])
				}
			}
		}
	}
}
