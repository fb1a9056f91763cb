package collective

import (
	"fmt"
	"time"

	"adapcc/internal/device"
	"adapcc/internal/fabric"
	"adapcc/internal/metrics"
	"adapcc/internal/payload"
	"adapcc/internal/relay"
	"adapcc/internal/sim"
	"adapcc/internal/strategy"
	"adapcc/internal/topology"
	"adapcc/internal/trace"
)

// Executor runs synthesised strategies over a fabric with simulated GPUs.
type Executor struct {
	fab    *fabric.Fabric
	gpus   map[int]*device.GPU
	tracer *trace.Tracer
	// hopFree recycles the per-hop send/arrive callback structs — the
	// single hottest allocation site of a run (one per chunk per hop).
	hopFree []*hopSend
	// stats accumulates fault-detection counters across ops (see
	// RecoveryStats); untouched when ops run without Recovery.
	stats RecoveryStats
	// reg/em are the metrics registry and its pre-resolved instrument
	// bundle; both nil (free) unless SetMetrics installed a registry.
	reg *metrics.Registry
	em  *execMetrics
}

func (e *Executor) getHop() *hopSend {
	if n := len(e.hopFree); n > 0 {
		h := e.hopFree[n-1]
		e.hopFree[n-1] = nil
		e.hopFree = e.hopFree[:n-1]
		return h
	}
	return new(hopSend)
}

func (e *Executor) putHop(h *hopSend) {
	*h = hopSend{}
	e.hopFree = append(e.hopFree, h)
}

// NewExecutor wires an executor to a fabric and the per-rank GPUs.
func NewExecutor(fab *fabric.Fabric, gpus map[int]*device.GPU) *Executor {
	return &Executor{fab: fab, gpus: gpus}
}

// Fabric returns the executor's data plane.
func (e *Executor) Fabric() *fabric.Fabric { return e.fab }

// Op is one collective invocation.
type Op struct {
	Strategy *strategy.Strategy
	// Mode selects the data plane: Dense (default) moves real float32s,
	// Phantom moves provenance metadata only. Timing is identical either
	// way — the simulation charges time from byte counts alone.
	Mode payload.Mode
	// Inputs holds each active rank's tensor (TotalBytes/4 float32s).
	// Dense mode only; ignored for ranks present in Payloads.
	Inputs map[int][]float32
	// Payloads optionally supplies pre-built payloads per rank (e.g. to
	// chain one collective's outputs into the next stage). Takes
	// precedence over Inputs. In Phantom mode ranks without an entry get
	// a synthesised PhantomInput carrying their own provenance.
	Payloads map[int]payload.Payload
	// Active marks contributing ranks; nil means every participant of
	// the strategy is active. Inactive participants act as relays per
	// their behaviour tuples.
	Active map[int]bool
	// SingleStream forces every flow of the collective onto one logical
	// stream — the NCCL single-channel behaviour, which caps the whole
	// collective at one stream's TCP rate.
	SingleStream bool
	// Class is the fabric traffic class every chunk of this collective
	// competes under at shared links (communicator-group scheduling).
	// Zero is the default best-effort class.
	Class fabric.ClassID
	// Recovery, when non-nil, arms chunk-granularity fault detection:
	// per-chunk transfer deadlines with bounded retransmission and an
	// op-level stall watchdog. See the Recovery type.
	Recovery *Recovery
	// OnDone fires when the collective completes.
	OnDone func(Result)
}

// Result is the outcome of one collective.
type Result struct {
	// Outputs maps rank → result tensor. Which ranks hold outputs
	// depends on the primitive: the roots for Reduce, every tree rank
	// for AllReduce/Broadcast, every participant for AlltoAll.
	// Populated in Dense mode only; nil for Phantom runs.
	Outputs map[int][]float32
	// Payloads maps rank → result payload in both modes. Phantom results
	// carry provenance and a positional checksum instead of data.
	Payloads map[int]payload.Payload
	// Elapsed is the virtual time from start to the last delivery.
	Elapsed time.Duration
	// Stats summarises the run: chunk deliveries, wire bytes, kernels,
	// retransmission activity.
	Stats StatsReport
}

// AlgoBandwidthBps is the evaluation metric of Sec. VI-C: input tensor
// size divided by completion time.
func AlgoBandwidthBps(bytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / elapsed.Seconds()
}

// Run validates and starts the collective. All progress happens on the
// fabric's simulation engine; Run itself returns immediately.
func (e *Executor) Run(op Op) error {
	st := op.Strategy
	if st == nil {
		return fmt.Errorf("collective: nil strategy")
	}
	g := e.fab.Graph()
	if err := st.Validate(g); err != nil {
		return err
	}

	active := op.Active
	if active == nil {
		active = make(map[int]bool)
		for _, r := range st.Participants() {
			active[r] = true
		}
	}
	totalElems := elemsOf(st.TotalBytes)
	anyActive := false
	inputs := make(map[int]payload.Payload)
	for r, a := range active {
		if !a {
			continue
		}
		anyActive = true
		switch p, ok := op.Payloads[r]; {
		case ok:
			if p.Mode() != op.Mode {
				return fmt.Errorf("collective: rank %d payload is %v, op is %v", r, p.Mode(), op.Mode)
			}
			if p.Len() != totalElems {
				return fmt.Errorf("collective: rank %d input has %d elems, want %d", r, p.Len(), totalElems)
			}
			inputs[r] = p
		case op.Mode == payload.Phantom:
			inputs[r] = payload.PhantomInput(r, totalElems)
		default:
			in, ok := op.Inputs[r]
			if !ok {
				return fmt.Errorf("collective: active rank %d has no input", r)
			}
			if len(in) != totalElems {
				return fmt.Errorf("collective: rank %d input has %d elems, want %d", r, len(in), totalElems)
			}
			inputs[r] = payload.WrapDense(in)
		}
		if _, ok := e.gpus[r]; !ok {
			return fmt.Errorf("collective: rank %d has no GPU", r)
		}
	}
	if !anyActive {
		return fmt.Errorf("collective: no active ranks")
	}

	spans, err := partitionSpans(st)
	if err != nil {
		return err
	}

	run := &opRun{
		ex:      e,
		st:      st,
		mode:    op.Mode,
		class:   op.Class,
		active:  active,
		inputs:  inputs,
		outputs: make(map[int]payload.Payload),
		arena:   payload.NewArena(op.Mode),
		started: e.fab.Engine().Now(),
		streams: make(map[streamKey]*device.Stream),
		onDone:  op.OnDone,
	}
	if op.SingleStream {
		run.rankStream = make(map[int]fabric.StreamID)
	}
	if op.Recovery != nil {
		rec := op.Recovery.normalized()
		run.rec = &rec
		run.lastProgress = run.started
		run.pendingKernels = make(map[int]int)
	}

	subs := make([]*subRun, len(st.SubCollectives))
	expected := 0
	for i := range st.SubCollectives {
		sub, err := newSubRun(run, &st.SubCollectives[i], i, spans[i])
		if err != nil {
			return err
		}
		subs[i] = sub
		expected += sub.expectedEvents
	}
	if expected == 0 {
		return fmt.Errorf("collective: nothing to communicate (no carrying flows)")
	}
	run.subs = subs
	run.expected = expected
	run.remaining = sim.NewCountdown(expected, run.finish)
	for _, sub := range subs {
		sub.start()
	}
	if run.rec != nil && run.rec.StallTimeout > 0 {
		run.engine().DoCallAfter(run.rec.StallTimeout, &progressWatch{op: run})
	}
	return nil
}

type streamKey struct {
	rank  int
	sub   int
	stage int // 0 = forward, 1 = allreduce broadcast stage
}

// opRun is the shared state of one in-flight collective.
type opRun struct {
	ex     *Executor
	st     *strategy.Strategy
	mode   payload.Mode
	class  fabric.ClassID
	active map[int]bool
	inputs map[int]payload.Payload
	// outputs maps rank → result payload (allocated on first write).
	outputs map[int]payload.Payload
	// arena owns the aggregation scratch buffers; released back to the
	// pool in finish(), after the last delivery has consumed them.
	arena     *payload.Arena
	started   sim.Time
	remaining *sim.Countdown
	streams   map[streamKey]*device.Stream
	// rankStream, when non-nil, gives every rank exactly one stream for
	// all its flows and stages (single-channel mode: NCCL's one CUDA
	// stream per device).
	rankStream map[int]fabric.StreamID
	// subs/expected/stats feed the per-collective StatsReport; the counters
	// are plain ints, so tracking costs nothing whether or not metrics are
	// enabled.
	subs     []*subRun
	expected int
	stats    StatsReport
	// streamFree serialises chunk send-initiations per stream: each
	// initiation costs a kernel/copy launch, so a single stream issues
	// sends strictly one after another while parallel contexts overlap
	// them (Sec. V-A multi-stream parallelism).
	streamFree map[fabric.StreamID]sim.Time
	onDone     func(Result)

	// Fault-detection state (nil/zero unless Op.Recovery was set).
	rec      *Recovery
	failed   bool
	finished bool
	// lastProgress is the latest arrival/retry/kernel-retire instant, the
	// stall watchdog's liveness stamp.
	lastProgress sim.Time
	// pendingKernels counts launched-but-unretired aggregation kernels
	// per rank, so a stall can be attributed to a hung device.
	pendingKernels map[int]int
}

// initiate charges the per-chunk launch cost on a stream and runs send when
// the stream's initiation slot frees up.
func (r *opRun) initiate(stream fabric.StreamID, send sim.Caller) {
	if r.streamFree == nil {
		r.streamFree = make(map[fabric.StreamID]sim.Time)
	}
	eng := r.engine()
	start := eng.Now()
	if free := r.streamFree[stream]; free > start {
		start = free
	}
	start += device.KernelLaunchLatency
	r.streamFree[stream] = start
	eng.DoCall(start, send)
}

func (r *opRun) engine() *sim.Engine { return r.ex.fab.Engine() }

// output returns (allocating on first use) a rank's result tensor.
func (r *opRun) output(rank int) payload.Payload {
	out, ok := r.outputs[rank]
	if !ok {
		out = r.ex.gpus[rank].AllocPayload(elemsOf(r.st.TotalBytes), r.mode)
		r.outputs[rank] = out
	}
	return out
}

func (r *opRun) stream(k streamKey) *device.Stream {
	s, ok := r.streams[k]
	if !ok {
		s = r.ex.gpus[k.rank].NewStream()
		r.streams[k] = s
	}
	return s
}

func (r *opRun) finish() {
	r.finished = true
	elapsed := time.Duration(r.engine().Now() - r.started)
	r.stats.ChunksDelivered = r.expected
	r.stats.Elapsed = elapsed
	r.recordFinish(elapsed)
	if r.onDone != nil {
		res := Result{
			Payloads: r.outputs,
			Elapsed:  elapsed,
			Stats:    r.stats,
		}
		if r.mode == payload.Dense {
			res.Outputs = make(map[int][]float32, len(r.outputs))
			for rank, p := range r.outputs {
				res.Outputs[rank] = p.Float32()
			}
		}
		r.onDone(res)
	}
	// Every delivery has happened; scratch buffers can recycle.
	r.arena.Release()
}

// subRun executes one sub-collective (one transmission context per rank).
type subRun struct {
	op     *opRun
	sc     *strategy.SubCollective
	idx    int
	pspan  span
	chunks []span // chunk layout of the partition (rooted primitives)

	flows   []flowRun
	carries []bool // does flow fi move any data?
	tuples  map[int]relay.Tuple

	// originFlow[rank] = index of the flow the rank originates (-1 if
	// none). Valid for rooted primitives only.
	originFlow map[int]int
	// aggs[node] tracks aggregation progress at flow-terminal GPU nodes.
	aggs map[topology.NodeID]*aggState

	// participantsSorted is the sorted participant rank list (AlltoAll
	// block indexing).
	participantsSorted []int
	rankIndex          map[int]int

	expectedEvents int
}

type flowRun struct {
	f         *strategy.Flow
	edges     []topology.EdgeID
	revEdges  []topology.EdgeID
	streamFwd fabric.StreamID
	streamRev fabric.StreamID
	sender    *flowSender // forward-stage sender
	revSender *flowSender // AllReduce broadcast-stage sender
	// blockChunks is the AlltoAll chunk layout of this flow's block.
	blockChunks []span
	blockDst    span // where the receiver stores the block
	// delivered counts this flow's end-to-end chunk deliveries (both
	// stages), the per-flow progress figure of the metrics layer.
	delivered int
}

type aggState struct {
	rank     int
	node     topology.NodeID
	expected int                       // carrying terminal flows
	got      map[int][]payload.Payload // chunk -> received buffers
	hasLocal bool
}

func newSubRun(op *opRun, sc *strategy.SubCollective, idx int, pspan span) (*subRun, error) {
	g := op.ex.fab.Graph()
	s := &subRun{
		op:         op,
		sc:         sc,
		idx:        idx,
		pspan:      pspan,
		tuples:     relay.Tuples(g, sc, op.st.Primitive, op.active),
		originFlow: make(map[int]int),
		aggs:       make(map[topology.NodeID]*aggState),
		rankIndex:  make(map[int]int),
	}
	chunkElems := elemsOf(sc.ChunkBytes)
	if chunkElems <= 0 {
		chunkElems = 1
	}
	s.chunks = chunkSpans(pspan, chunkElems)

	// Resolve flow hop edges. Streams follow the paper's transmission
	// contexts: within one sub-collective, all flows originating at one
	// GPU share a logical stream per stage (its persistent context
	// thread / QP), so chunks of one source deliver strictly in order
	// and the M parallel contexts aggregate bandwidth on capped links.
	fab := op.ex.fab
	fwdStream := make(map[int]fabric.StreamID)
	revStream := make(map[int]fabric.StreamID)
	streamOf := func(m map[int]fabric.StreamID, src int) fabric.StreamID {
		if op.rankStream != nil {
			// Single-channel mode: one stream per device, shared by
			// every flow and stage of that rank.
			m = op.rankStream
		}
		id, ok := m[src]
		if !ok {
			id = fab.NewStreamID()
			m[src] = id
		}
		return id
	}
	s.flows = make([]flowRun, len(sc.Flows))
	for i := range sc.Flows {
		f := &sc.Flows[i]
		fr := flowRun{
			f:         f,
			streamFwd: streamOf(fwdStream, f.SrcRank),
			streamRev: streamOf(revStream, f.DstRank),
		}
		for h := 1; h < len(f.Path); h++ {
			eid, ok := g.EdgeBetween(f.Path[h-1], f.Path[h])
			if !ok {
				return nil, fmt.Errorf("collective: flow %d missing edge", f.ID)
			}
			fr.edges = append(fr.edges, eid)
		}
		for h := len(f.Path) - 1; h >= 1; h-- {
			eid, ok := g.EdgeBetween(f.Path[h], f.Path[h-1])
			if !ok {
				return nil, fmt.Errorf("collective: flow %d has no reverse edge %v -> %v (needed for the AllReduce broadcast stage)",
					f.ID, f.Path[h], f.Path[h-1])
			}
			fr.revEdges = append(fr.revEdges, eid)
		}
		s.flows[i] = fr
	}

	// Carrying analysis: a flow moves data if its source is active or
	// data terminates at its origin (relay continuation). AlltoAll flows
	// are independent: each carries exactly when its source is active.
	s.carries = make([]bool, len(sc.Flows))
	if op.st.Primitive == strategy.AlltoAll {
		for i := range sc.Flows {
			s.carries[i] = op.active[sc.Flows[i].SrcRank]
		}
	} else {
		carriesAt := make(map[topology.NodeID]bool)
		order, err := relay.FlowDependencyOrder(sc)
		if err != nil {
			return nil, err
		}
		for _, fi := range order {
			f := &sc.Flows[fi]
			carry := op.active[f.SrcRank] || carriesAt[f.Path[0]]
			s.carries[fi] = carry
			if carry {
				carriesAt[f.Path[len(f.Path)-1]] = true
			}
		}
	}

	for i := range sc.Flows {
		s.originFlow[sc.Flows[i].SrcRank] = i
	}

	switch op.st.Primitive {
	case strategy.Reduce, strategy.AllReduce:
		s.setupReduce(g)
	case strategy.Broadcast:
		s.setupBroadcast()
	case strategy.AlltoAll:
		s.setupAlltoAll()
	}
	return s, nil
}

// setupReduce prepares aggregation states and completion counts.
func (s *subRun) setupReduce(g *topology.Graph) {
	// Aggregators: GPU nodes where carrying flows terminate, plus the
	// root (which always finalises chunks even with no carrying input
	// if it is active).
	termCount := make(map[topology.NodeID]int)
	for fi := range s.flows {
		if !s.carries[fi] {
			continue
		}
		p := s.flows[fi].f.Path
		termCount[p[len(p)-1]]++
	}
	for node, n := range termCount {
		rank := g.Node(node).Rank
		s.aggs[node] = &aggState{
			rank:     rank,
			node:     node,
			expected: n,
			got:      make(map[int][]payload.Payload),
			hasLocal: s.op.active[rank],
		}
	}

	rootID, _ := g.GPUByRank(s.sc.Root)
	treeRanks := s.treeRankCount()
	switch s.op.st.Primitive {
	case strategy.Reduce:
		s.expectedEvents = len(s.chunks)
	case strategy.AllReduce:
		// Root completion + one reversed delivery per non-root tree
		// rank, per chunk.
		s.expectedEvents = len(s.chunks) * treeRanks
	}
	// Degenerate: the root has no carrying input (it is the only active
	// rank, or everything upstream idle). The collective still
	// completes: the root's "aggregate" is its own data.
	_ = rootID
}

func (s *subRun) treeRankCount() int {
	set := make(map[int]bool)
	for i := range s.flows {
		set[s.flows[i].f.SrcRank] = true
		set[s.flows[i].f.DstRank] = true
	}
	return len(set)
}

// setupBroadcast counts terminal deliveries.
func (s *subRun) setupBroadcast() {
	s.expectedEvents = len(s.chunks) * len(s.flows)
}

// setupAlltoAll computes block layouts per flow: the tensor is split into
// n equal blocks of floor(len/n) elements (block k of sender j goes to
// rank k and lands in the receiver's block j), and each partition carries
// its share of every block (alltoallShare). The tail that does not divide
// evenly (< n elements) stays local.
func (s *subRun) setupAlltoAll() {
	for _, r := range s.op.st.Participants() {
		s.participantsSorted = append(s.participantsSorted, r)
	}
	for i, r := range s.participantsSorted {
		s.rankIndex[r] = i
	}
	n := len(s.participantsSorted)
	total := elemsOf(s.op.st.TotalBytes)
	chunkElems := elemsOf(s.sc.ChunkBytes)
	if chunkElems <= 0 {
		chunkElems = 1
	}
	s.expectedEvents = 0
	for fi := range s.flows {
		f := s.flows[fi].f
		if !s.op.active[f.SrcRank] {
			continue
		}
		src := alltoallShare(s.pspan, total, n, s.rankIndex[f.DstRank])
		dst := alltoallShare(s.pspan, total, n, s.rankIndex[f.SrcRank])
		if src.Len() == 0 {
			continue
		}
		s.flows[fi].blockChunks = chunkSpans(src, chunkElems)
		s.flows[fi].blockDst = dst
		s.expectedEvents += len(s.flows[fi].blockChunks)
	}
}

// start kicks off the sub-collective.
func (s *subRun) start() {
	switch s.op.st.Primitive {
	case strategy.Reduce, strategy.AllReduce:
		s.startReduce()
	case strategy.Broadcast:
		s.startBroadcast()
	case strategy.AlltoAll:
		s.startAlltoAll()
	}
}

// startReduce: pure sources (active, no carrying inputs) stream their
// local chunks; aggregators fire as inputs arrive. A root with no carrying
// inputs finalises its own data immediately.
func (s *subRun) startReduce() {
	g := s.op.ex.fab.Graph()
	for fi := range s.flows {
		if !s.carries[fi] {
			continue
		}
		f := s.flows[fi].f
		origin := f.Path[0]
		if _, isAgg := s.aggs[origin]; isAgg {
			continue // fed by aggregation completions
		}
		// Pure source: must be active (otherwise carries would be false).
		for c := range s.chunks {
			s.sender(fi).enqueue(c, s.localChunk(f.SrcRank, c))
		}
	}
	// Root with no carrying input: finalise all chunks directly.
	rootID, _ := g.GPUByRank(s.sc.Root)
	if _, ok := s.aggs[rootID]; !ok {
		for c := range s.chunks {
			s.finalizeRootChunk(c, s.localChunk(s.sc.Root, c))
		}
	}
}

func (s *subRun) startBroadcast() {
	// Root copies its own partition into its output and streams chunks
	// down each flow it originates.
	root := s.sc.Root
	out := s.op.output(root)
	for c, sp := range s.chunks {
		data := s.localChunk(root, c)
		out.View(sp.Start, sp.End).CopyFrom(data)
		for fi := range s.flows {
			if s.flows[fi].f.SrcRank == root {
				s.sender(fi).enqueue(c, data)
			}
		}
	}
}

func (s *subRun) startAlltoAll() {
	n := len(s.participantsSorted)
	total := elemsOf(s.op.st.TotalBytes)
	last := s.idx == len(s.op.st.SubCollectives)-1
	for _, rank := range s.participantsSorted {
		if !s.op.active[rank] {
			continue
		}
		// This partition's share of the self block, plus (once, in the last
		// partition) the undivided tail: local copies.
		sp := alltoallShare(s.pspan, total, n, s.rankIndex[rank])
		out := s.op.output(rank)
		in := s.op.inputs[rank]
		out.View(sp.Start, sp.End).CopyFrom(in.View(sp.Start, sp.End))
		if last {
			tail := alltoallTail(span{End: total}, n)
			out.View(tail.Start, tail.End).CopyFrom(in.View(tail.Start, tail.End))
		}
	}
	for fi := range s.flows {
		fr := &s.flows[fi]
		if len(fr.blockChunks) == 0 {
			continue
		}
		for c, sp := range fr.blockChunks {
			s.sender(fi).enqueue(c, s.op.inputs[fr.f.SrcRank].View(sp.Start, sp.End))
		}
	}
}

// localChunk returns a view of a rank's input for chunk c of this partition.
func (s *subRun) localChunk(rank, c int) payload.Payload {
	sp := s.chunks[c]
	return s.op.inputs[rank].View(sp.Start, sp.End)
}

// sender lazily creates the pipelined sender of a flow.
func (s *subRun) sender(fi int) *flowSender {
	if s.flows[fi].sender == nil {
		s.flows[fi].sender = &flowSender{sub: s, flowIdx: fi}
	}
	return s.flows[fi].sender
}

// chunkMsg is one chunk in flight. data is a payload view; the wire cost
// comes from its SizeBytes, never its contents.
type chunkMsg struct {
	flowIdx  int
	chunk    int
	hop      int // index of the hop just traversed (0-based)
	data     payload.Payload
	reversed bool // AllReduce broadcast stage
}

// flowSender pipelines chunks onto a flow's first hop: the next chunk is
// posted when the previous finishes serialising on the first link, so
// chunks stream hop-by-hop exactly as the Eq. 5 pipeline model assumes.
// The queue drains through head (rather than re-slicing) so its backing
// array is reused across the whole run.
type flowSender struct {
	sub      *subRun
	flowIdx  int
	reversed bool
	queue    []chunkMsg
	head     int
	busy     bool
}

func (fs *flowSender) enqueue(chunk int, data payload.Payload) {
	fs.queue = append(fs.queue, chunkMsg{
		flowIdx:  fs.flowIdx,
		chunk:    chunk,
		data:     data,
		reversed: fs.reversed,
	})
	if !fs.busy {
		fs.kick()
	}
}

func (fs *flowSender) kick() {
	if fs.head == len(fs.queue) {
		fs.queue = fs.queue[:0]
		fs.head = 0
		fs.busy = false
		return
	}
	fs.busy = true
	msg := fs.queue[fs.head]
	fs.queue[fs.head] = chunkMsg{}
	fs.head++
	fs.sub.sendHop(msg, fs)
}

// hopSend carries one chunk across one hop. One pooled struct serves as the
// launch callback (Call posts the chunk onto the wire) and the fabric
// arrival callback (OnArrive), so the hottest path of a run — one
// launch+transfer+arrival per chunk per hop — allocates nothing in steady
// state.
type hopSend struct {
	s         *subRun
	msg       chunkMsg
	eid       topology.EdgeID
	stream    fabric.StreamID
	bytes     int64
	sendStart sim.Time
	// fs, on a flow's first hop, is the sender released to post its next
	// chunk once this hop's serialisation+latency completes.
	fs *flowSender
	// Fault-detection state (zero unless the op runs with Recovery): the
	// (handle, gen) pair of the current wire attempt, its deadline event,
	// and how many retransmissions this chunk hop has spent.
	transfer *fabric.Transfer
	tgen     uint64
	watchdog *sim.Event
	retries  int
}

// Call posts the chunk onto the wire (the send initiation completing, or a
// retransmission backoff expiring).
func (h *hopSend) Call() {
	op := h.s.op
	if op.failed {
		op.ex.putHop(h)
		return
	}
	h.sendStart = op.engine().Now()
	t := op.ex.fab.SendStreamClassTo(h.eid, h.stream, op.class, h.bytes, nil, h)
	if op.rec != nil {
		h.transfer, h.tgen = t, t.Gen()
		h.armDeadline()
	}
}

// OnArrive handles the chunk landing after this hop.
func (h *hopSend) OnArrive(any) {
	s, msg, eid, sendStart, bytes, fs := h.s, h.msg, h.eid, h.sendStart, h.bytes, h.fs
	if h.watchdog != nil {
		s.op.engine().Cancel(h.watchdog)
	}
	s.op.ex.putHop(h)
	if s.op.failed {
		return
	}
	if s.op.rec != nil {
		s.op.progress()
	}
	s.op.stats.ChunkHops++
	s.op.stats.BytesOnWire += bytes
	if em := s.op.ex.em; em != nil {
		now := s.op.engine().Now()
		em.hops.Inc(now)
		em.bytes.Add(now, float64(bytes))
		em.hopLatency.ObserveDuration(now, time.Duration(now-sendStart))
	}
	s.traceTransfer(msg, eid, sendStart, bytes)
	if fs != nil {
		fs.kick()
	}
	s.arrived(msg)
}

// sendHop transmits msg over its next hop. fs (nil for forwarding hops) is
// the flow sender to release when this hop completes. The source hop
// additionally pays the per-chunk launch cost, serialised on the flow's
// stream.
func (s *subRun) sendHop(msg chunkMsg, fs *flowSender) {
	fr := &s.flows[msg.flowIdx]
	edges := fr.edges
	stream := fr.streamFwd
	if msg.reversed {
		edges = fr.revEdges
		stream = fr.streamRev
	}
	eid := edges[msg.hop]
	bytes := msg.data.SizeBytes()
	if bytes == 0 {
		bytes = 4 // metadata-only chunk, still costs a message
	}
	h := s.op.ex.getHop()
	*h = hopSend{s: s, msg: msg, eid: eid, stream: stream, bytes: bytes, fs: fs}
	if msg.hop == 0 {
		s.op.initiate(stream, h)
		return
	}
	h.Call()
}

// arrived handles a chunk landing at the node after hop msg.hop.
func (s *subRun) arrived(msg chunkMsg) {
	fr := &s.flows[msg.flowIdx]
	path := fr.f.Path
	var node topology.NodeID
	if msg.reversed {
		node = path[len(path)-2-msg.hop]
	} else {
		node = path[msg.hop+1]
	}
	lastHop := msg.hop == len(fr.edges)-1
	if !lastHop {
		msg.hop++
		s.sendHop(msg, nil)
		return
	}
	fr.delivered++
	if msg.reversed {
		s.reversedDelivered(msg, node)
		return
	}
	switch s.op.st.Primitive {
	case strategy.Reduce, strategy.AllReduce:
		s.aggArrival(node, msg)
	case strategy.Broadcast:
		s.broadcastDelivered(node, msg)
	case strategy.AlltoAll:
		s.alltoallDelivered(msg)
	}
}

// aggArrival collects a chunk at an aggregation point and launches the
// kernel when all expected inputs for that chunk are present.
func (s *subRun) aggArrival(node topology.NodeID, msg chunkMsg) {
	agg := s.aggs[node]
	if agg == nil {
		panic(fmt.Sprintf("collective: chunk arrived at non-aggregating node %v", node))
	}
	agg.got[msg.chunk] = append(agg.got[msg.chunk], msg.data)
	if len(agg.got[msg.chunk]) < agg.expected {
		return
	}
	inputs := agg.got[msg.chunk]
	delete(agg.got, msg.chunk)
	tuple := s.tuples[agg.rank]
	chunk := msg.chunk

	if !tuple.HasKernel {
		// Single-stream relay: forward the data untouched, no kernel.
		if len(inputs) != 1 || agg.hasLocal {
			panic("collective: kernel-less aggregation with multiple inputs")
		}
		s.aggregated(agg, chunk, inputs[0])
		return
	}
	// Aggregate into a pooled scratch buffer: local chunk (if any) plus
	// inputs. The seeding copy is free on the simulation clock (it models
	// the kernel reading its first operand); the reduce kernel is charged
	// from the remaining inputs' bytes.
	sp := s.chunks[chunk]
	buf := s.op.arena.Scratch(sp.Len())
	if agg.hasLocal {
		buf.CopyFrom(s.localChunk(agg.rank, chunk))
	} else {
		buf.CopyFrom(inputs[0])
		inputs = inputs[1:]
	}
	key := streamKey{rank: agg.rank, sub: s.idx}
	kernelStart := s.op.engine().Now()
	nInputs := len(inputs)
	s.op.stats.Kernels++
	if s.op.rec != nil {
		s.op.pendingKernels[agg.rank]++
	}
	s.op.stream(key).LaunchReduceInto(buf, inputs, func() {
		if s.op.rec != nil {
			s.op.pendingKernels[agg.rank]--
			s.op.progress()
		}
		if s.op.failed {
			return
		}
		s.traceKernel(agg.rank, chunk, nInputs, kernelStart)
		s.aggregated(agg, chunk, buf)
	})
}

// aggregated routes a completed aggregation: onward to the parent, or
// finalisation at the root.
func (s *subRun) aggregated(agg *aggState, chunk int, data payload.Payload) {
	if agg.rank == s.sc.Root {
		s.finalizeRootChunk(chunk, data)
		return
	}
	fi, ok := s.originFlow[agg.rank]
	if !ok {
		panic(fmt.Sprintf("collective: aggregator rank %d has no continuation flow", agg.rank))
	}
	s.sender(fi).enqueue(chunk, data)
}

// finalizeRootChunk records the fully reduced chunk at the root and, for
// AllReduce, immediately pipelines it down the reversed tree (multi-stage
// parallelism, Sec. V-B).
func (s *subRun) finalizeRootChunk(chunk int, data payload.Payload) {
	sp := s.chunks[chunk]
	out := s.op.output(s.sc.Root)
	out.View(sp.Start, sp.End).CopyFrom(data)
	s.traceRootChunk(chunk)
	s.op.remaining.Done()
	if s.op.st.Primitive != strategy.AllReduce {
		return
	}
	// Broadcast stage: reversed flows originating at the root are the
	// original flows that terminated at the root.
	rootID, _ := s.op.ex.fab.Graph().GPUByRank(s.sc.Root)
	for fi := range s.flows {
		p := s.flows[fi].f.Path
		if p[len(p)-1] == rootID {
			s.reverseSender(fi).enqueue(chunk, data)
		}
	}
}

// reverseSender lazily creates the broadcast-stage sender of a flow.
func (s *subRun) reverseSender(fi int) *flowSender {
	fr := &s.flows[fi]
	if fr.revSender == nil {
		fr.revSender = &flowSender{sub: s, flowIdx: fi, reversed: true}
	}
	return fr.revSender
}

// reversedDelivered handles an AllReduce broadcast-stage chunk reaching a
// tree rank: store the result and cascade further down.
func (s *subRun) reversedDelivered(msg chunkMsg, node topology.NodeID) {
	g := s.op.ex.fab.Graph()
	rank := g.Node(node).Rank
	sp := s.chunks[msg.chunk]
	out := s.op.output(rank)
	out.View(sp.Start, sp.End).CopyFrom(msg.data)
	s.op.remaining.Done()
	// Cascade: reversed flows originating here are the original flows
	// that terminated at this node.
	for fi := range s.flows {
		p := s.flows[fi].f.Path
		if p[len(p)-1] == node {
			s.reverseSender(fi).enqueue(msg.chunk, msg.data)
		}
	}
}

// broadcastDelivered stores a Broadcast chunk at a flow destination and
// forwards it down the out-tree.
func (s *subRun) broadcastDelivered(node topology.NodeID, msg chunkMsg) {
	g := s.op.ex.fab.Graph()
	rank := g.Node(node).Rank
	sp := s.chunks[msg.chunk]
	out := s.op.output(rank)
	out.View(sp.Start, sp.End).CopyFrom(msg.data)
	s.op.remaining.Done()
	for fi := range s.flows {
		if s.flows[fi].f.SrcRank == rank {
			s.sender(fi).enqueue(msg.chunk, msg.data)
		}
	}
}

// alltoallDelivered stores a block chunk at its receiver.
func (s *subRun) alltoallDelivered(msg chunkMsg) {
	fr := &s.flows[msg.flowIdx]
	srcChunk := fr.blockChunks[msg.chunk]
	// Map the chunk's offset within the source share onto the
	// receiver-side share (both are the same slice of equal blocks).
	offset := srcChunk.Start - fr.blockChunks[0].Start
	dst := s.op.output(fr.f.DstRank)
	dst.View(fr.blockDst.Start+offset, fr.blockDst.Start+offset+srcChunk.Len()).CopyFrom(msg.data)
	s.op.remaining.Done()
}
