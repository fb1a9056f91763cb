// Package fabric is the simulated data plane: it moves chunks of bytes over
// the logical topology graph under a fluid bandwidth-sharing model.
//
// Each directed edge is an independent fluid link: the transfers active on
// the link share its (time-varying) bandwidth equally, with an optional
// per-stream cap (models the single-TCP-channel kernel ceiling). A transfer
// occupies exactly one link — multi-hop movement is store-and-forward at
// chunk granularity, which is precisely the pipelining behaviour AdapCC's
// optimisation model (paper Eq. 2–6) reasons about. Link latency α is added
// after serialisation and does not occupy the link.
//
// The fabric replaces NVLink/PCIe/RDMA/TCP hardware: contention, chunk
// pipelining, heterogeneous rates and mid-training bandwidth changes all
// emerge from this model.
//
// The fabric is a pure timing plane: a transfer's duration depends only on
// the byte size declared to Send, never on the payload value, which rides
// along as an opaque token and is handed back to onArrive untouched. In
// practice that token is a payload.Payload view — dense (real float32
// data) or phantom (length + provenance metadata) — and this indifference
// is what lets dense and phantom runs produce bit-identical timelines.
package fabric

import (
	"fmt"
	"math"
	"time"

	"adapcc/internal/metrics"
	"adapcc/internal/sim"
	"adapcc/internal/topology"
)

// completion slack: a transfer whose remaining bytes fall below this is done
// (absorbs float rounding between rate integration and event timestamps).
const epsilonBytes = 1e-3

// maxScheduleSeconds bounds the horizon of a completion event. A nearly-zero
// link rate can push a transfer's finish time past what time.Duration can
// represent; converting that float would overflow into a negative duration
// and the completion event would spin at the current instant forever. Beyond
// this horizon (~31 virtual years) the link is treated as stalled, exactly
// like scale zero: a future SetScale or Abort reschedules it.
const maxScheduleSeconds = 1e9

// StreamID groups transfers that belong to one logical stream (e.g. the
// pipelined chunks of one flow in one transmission context). A link's
// per-stream bandwidth cap applies to the whole group, not to each chunk:
// this is what limits a single TCP channel to ~20 Gbps no matter how many
// chunks it pipelines, while distinct streams aggregate. Zero means "its
// own stream".
type StreamID int64

// ClassID names a registered traffic class. The zero value is the default
// class: priority 0, and — uniquely — every default-class stream counts as
// its own weight-1 flow, which reproduces the historical equal per-stream
// split exactly. Register non-default classes with NewClass.
type ClassID int32

// Class describes one traffic class for the link scheduler. Arbitration at
// each link is strict-priority between classes and weighted-fair within a
// priority level, at chunk granularity: a chunk already on the wire is
// never preempted, but once it completes, waiting higher-priority chunks
// are served before lower-priority ones, and same-priority classes split
// bandwidth in proportion to Weight (counted once per class, not per
// stream — a class with many streams does not multiply its share).
type Class struct {
	// Name labels the class in metrics (adapcc_link_class_share).
	Name string
	// Priority orders classes at a link: higher strictly wins. Default 0.
	Priority int
	// Weight is the fair-share weight among serving classes of the top
	// priority level. Non-positive weights are registered as 1.
	Weight float64
}

// Arrival is the interface form of an arrival callback: the fabric calls
// OnArrive(payload) when the transfer completes. Hot callers pre-bind the
// callback state in the receiver, so posting a chunk allocates no closure.
type Arrival interface{ OnArrive(payload any) }

// Transfer is one in-flight chunk on one link. The handle returned by the
// Send family is valid until the transfer completes; completed transfers
// are recycled for later sends. Callers that may outlive the transfer (e.g.
// retransmission watchdogs) must pair the handle with its Gen and go
// through Abort, which rejects stale generations.
type Transfer struct {
	link      *link
	stream    StreamID
	class     ClassID
	remaining float64
	rate      float64 // bytes/sec currently granted
	payload   any
	onArrive  func(payload any)
	arr       Arrival
	size      int64
	started   sim.Time
	gen       uint64 // identity stamp; 0 only on recycled structs
}

// Size returns the transfer's total size in bytes.
func (t *Transfer) Size() int64 { return t.size }

// Gen returns the transfer's generation stamp. A (handle, gen) pair is the
// only safe way to refer to a transfer asynchronously: the struct is pooled,
// so by the time a watchdog fires the handle may describe a different send.
func (t *Transfer) Gen() uint64 { return t.gen }

// Call fires the transfer's arrival callback and recycles the struct. The
// fabric schedules it (as a pooled simulation event) one link latency α
// after serialisation completes; it is not for external use.
func (t *Transfer) Call() {
	payload, onArrive, arr := t.payload, t.onArrive, t.arr
	f := t.link.fab
	*t = Transfer{}
	f.free = append(f.free, t)
	if arr != nil {
		arr.OnArrive(payload)
		return
	}
	onArrive(payload)
}

// Verdict is an Injector's decision about one transfer entering a link.
type Verdict int

const (
	// VerdictPass admits the transfer normally.
	VerdictPass Verdict = iota
	// VerdictDrop blackholes the transfer: it is parked outside the
	// link's bandwidth accounting and never delivers. Only Abort (a
	// retransmission deadline) reclaims it — this models chunk loss.
	VerdictDrop
	// VerdictHold parks the transfer for the returned delay before it
	// enters the link — this models a mid-path stall (a paused queue, a
	// flapping port buffering traffic).
	VerdictHold
)

// Injector is the fault-injection hook consulted once per send. A nil
// injector (the default) costs a single pointer comparison on the send
// path; the chaos engine installs one to impose loss and stall windows.
type Injector interface {
	Admit(edge topology.EdgeID, size int64) (Verdict, time.Duration)
}

// Fabric simulates the data plane over a logical graph.
type Fabric struct {
	eng      *sim.Engine
	graph    *topology.Graph
	links    []*link
	streamID StreamID
	uniqueID StreamID
	free     []*Transfer // recycled transfer structs
	genCount uint64
	inj      Injector
	classes  []Class
	reg      *metrics.Registry // lazily resolves per-class link-share gauges
	cong     *Congest          // nil when the congestion plane is disabled
}

// SetInjector installs (or, with nil, removes) the fault-injection hook.
func (f *Fabric) SetInjector(inj Injector) { f.inj = inj }

// NewStreamID allocates a fresh logical stream identifier.
func (f *Fabric) NewStreamID() StreamID {
	f.streamID++
	return f.streamID
}

// NewClass registers a traffic class and returns its id. Classes are
// append-only for the fabric's lifetime: a ClassID handed out stays valid
// and keeps its priority and weight.
func (f *Fabric) NewClass(c Class) ClassID {
	if c.Weight <= 0 {
		c.Weight = 1
	}
	if c.Name == "" {
		c.Name = fmt.Sprintf("class%d", len(f.classes))
	}
	f.classes = append(f.classes, c)
	return ClassID(len(f.classes) - 1)
}

// ClassInfo returns the definition of a registered class.
func (f *Fabric) ClassInfo(id ClassID) Class { return f.classes[id] }

// New builds a fabric over the graph. Every edge starts at its nominal
// bandwidth (scale 1.0).
func New(eng *sim.Engine, graph *topology.Graph) *Fabric {
	f := &Fabric{eng: eng, graph: graph,
		classes: []Class{{Name: "default", Priority: 0, Weight: 1}}}
	f.links = make([]*link, graph.NumEdges())
	for i := range f.links {
		f.links[i] = &link{
			fab:    f,
			edge:   graph.Edge(topology.EdgeID(i)),
			scale:  1.0,
			cscale: 1.0,
		}
	}
	return f
}

// Engine returns the simulation engine driving this fabric.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Graph returns the logical graph the fabric runs over.
func (f *Fabric) Graph() *topology.Graph { return f.graph }

// Send starts transferring size bytes over a single edge as its own
// stream. onArrive fires (with the payload) once serialisation and the
// link latency α complete. Size must be positive.
func (f *Fabric) Send(edge topology.EdgeID, size int64, payload any, onArrive func(payload any)) *Transfer {
	return f.SendStream(edge, 0, size, payload, onArrive)
}

// SendStream starts a transfer that belongs to the given logical stream
// (0 = independent). Concurrent transfers of one stream share a single
// per-stream bandwidth allowance on the link.
func (f *Fabric) SendStream(edge topology.EdgeID, stream StreamID, size int64, payload any, onArrive func(payload any)) *Transfer {
	return f.send(edge, stream, size, payload, onArrive, nil)
}

// SendStreamClassTo is SendStream with an interface arrival callback (see
// Arrival) under a registered traffic class: the per-chunk hot path of the
// collective executor uses it so posting a chunk allocates no closure, and
// the chunk competes at every shared link with that class's priority and
// weight. Class 0 is the default best-effort class.
func (f *Fabric) SendStreamClassTo(edge topology.EdgeID, stream StreamID, class ClassID, size int64, payload any, arr Arrival) *Transfer {
	return f.sendClass(edge, stream, class, size, payload, nil, arr)
}

func (f *Fabric) send(edge topology.EdgeID, stream StreamID, size int64, payload any, onArrive func(payload any), arr Arrival) *Transfer {
	return f.sendClass(edge, stream, 0, size, payload, onArrive, arr)
}

func (f *Fabric) sendClass(edge topology.EdgeID, stream StreamID, class ClassID, size int64, payload any, onArrive func(payload any), arr Arrival) *Transfer {
	if size <= 0 {
		panic(fmt.Sprintf("fabric: transfer size %d must be positive", size))
	}
	if stream == 0 {
		// Unique group: negative ids never collide with NewStreamID.
		f.uniqueID--
		stream = f.uniqueID
	}
	l := f.links[edge]
	var t *Transfer
	if n := len(f.free); n > 0 {
		t = f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
	} else {
		t = new(Transfer)
	}
	f.genCount++
	*t = Transfer{
		link:      l,
		stream:    stream,
		class:     class,
		remaining: float64(size),
		size:      size,
		payload:   payload,
		onArrive:  onArrive,
		arr:       arr,
		started:   f.eng.Now(),
		gen:       f.genCount,
	}
	if f.inj != nil {
		switch v, d := f.inj.Admit(edge, size); v {
		case VerdictDrop:
			l.parked = append(l.parked, t)
			return t
		case VerdictHold:
			l.parked = append(l.parked, t)
			gen := t.gen
			f.eng.After(d, func() { f.release(t, gen) })
			return t
		}
	}
	l.advance()
	l.active = append(l.active, t)
	l.reallocate()
	if f.cong != nil {
		f.cong.touch(edge)
	}
	return t
}

// release moves a held transfer from the parked list onto the link proper.
// The generation check makes it a no-op if the transfer was aborted (and
// possibly recycled into a different send) in the meantime.
func (f *Fabric) release(t *Transfer, gen uint64) {
	if t.gen != gen || t.link == nil {
		return
	}
	l := t.link
	for i, p := range l.parked {
		if p != t {
			continue
		}
		l.parked = append(l.parked[:i], l.parked[i+1:]...)
		l.advance()
		l.active = append(l.active, t)
		l.reallocate()
		if f.cong != nil {
			f.cong.touch(l.edge.ID)
		}
		return
	}
}

// Abort withdraws an in-flight or parked transfer, recycling it without
// firing its arrival callback, and reports whether it did. False means the
// (handle, gen) pair no longer names a live transfer: it was delivered —
// possibly with its arrival callback still pending behind the link latency
// α — or already aborted. Callers (retransmission deadlines) must treat
// false as "the chunk got through after all" and do nothing.
func (f *Fabric) Abort(t *Transfer, gen uint64) bool {
	if t == nil || gen == 0 || t.gen != gen || t.link == nil {
		return false
	}
	l := t.link
	for i, p := range l.parked {
		if p == t {
			l.parked = append(l.parked[:i], l.parked[i+1:]...)
			l.bytesAborted += t.size
			if l.lm != nil {
				l.lm.aborted.Add(f.eng.Now(), float64(t.size))
			}
			f.recycle(t)
			return true
		}
	}
	// Integrate progress first: a transfer that completed exactly now is
	// delivered, not aborted.
	l.advance()
	for i, p := range l.active {
		if p != t {
			continue
		}
		copy(l.active[i:], l.active[i+1:])
		l.active[len(l.active)-1] = nil
		l.active = l.active[:len(l.active)-1]
		l.bytesAborted += t.size
		if l.lm != nil {
			l.lm.aborted.Add(f.eng.Now(), float64(t.size))
		}
		f.recycle(t)
		l.reallocate()
		if f.cong != nil {
			f.cong.touch(l.edge.ID)
		}
		return true
	}
	return false
}

func (f *Fabric) recycle(t *Transfer) {
	*t = Transfer{}
	f.free = append(f.free, t)
}

// SendBetween is a convenience that sends over the edge from one node to
// another; it returns an error if no such edge exists.
func (f *Fabric) SendBetween(from, to topology.NodeID, size int64, payload any, onArrive func(payload any)) (*Transfer, error) {
	eid, ok := f.graph.EdgeBetween(from, to)
	if !ok {
		return nil, fmt.Errorf("fabric: no edge %v -> %v", from, to)
	}
	return f.Send(eid, size, payload, onArrive), nil
}

// SetScale changes the live bandwidth of an edge to scale × nominal
// (volatile-network and interference experiments use this; it is the
// simulator's analogue of `tc`). In-flight transfers immediately see the new
// rate. Scale 0 stalls the link.
func (f *Fabric) SetScale(edge topology.EdgeID, scale float64) {
	if scale < 0 {
		scale = 0
	}
	l := f.links[edge]
	l.advance()
	l.scale = scale
	l.reallocate()
	if f.cong != nil {
		f.cong.touch(edge)
	}
}

// Scale returns the current bandwidth multiplier of an edge.
func (f *Fabric) Scale(edge topology.EdgeID) float64 { return f.links[edge].scale }

// LiveBandwidthBps returns the instantaneous total bandwidth of an edge,
// including any congestion-plane service-rate reduction.
func (f *Fabric) LiveBandwidthBps(edge topology.EdgeID) float64 {
	l := f.links[edge]
	return l.edge.BandwidthBps * l.scale * l.cscale
}

// BytesDelivered returns the cumulative bytes fully serialised on an edge.
func (f *Fabric) BytesDelivered(edge topology.EdgeID) int64 { return f.links[edge].bytesDone }

// ActiveTransfers returns the number of in-flight transfers on an edge.
func (f *Fabric) ActiveTransfers(edge topology.EdgeID) int { return len(f.links[edge].active) }

// ParkedTransfers returns the number of transfers held off an edge by the
// injector (dropped or stalled, not yet aborted or released).
func (f *Fabric) ParkedTransfers(edge topology.EdgeID) int { return len(f.links[edge].parked) }

// BytesAborted returns the cumulative bytes withdrawn from an edge via
// Abort. Together with BytesDelivered and the in-flight set this preserves
// the conservation ledger: every admitted byte is delivered, aborted, or
// still in flight/parked.
func (f *Fabric) BytesAborted(edge topology.EdgeID) int64 { return f.links[edge].bytesAborted }

// SetServerIngressScale applies a bandwidth scale to every network edge
// entering the given server (the paper's Fig. 2a scenario: server B's
// ingress degrades under cross-traffic).
func (f *Fabric) SetServerIngressScale(server int, scale float64) {
	for _, e := range f.graph.Edges() {
		if !e.Type.Network() {
			continue
		}
		if f.graph.Node(e.To).Server == server {
			f.SetScale(e.ID, scale)
		}
	}
}

// SetServerNetworkScale applies a bandwidth scale to every network edge
// touching the given server, in either direction.
func (f *Fabric) SetServerNetworkScale(server int, scale float64) {
	for _, e := range f.graph.Edges() {
		if !e.Type.Network() {
			continue
		}
		if f.graph.Node(e.To).Server == server || f.graph.Node(e.From).Server == server {
			f.SetScale(e.ID, scale)
		}
	}
}

// link is the per-edge fluid model state.
type link struct {
	fab   *Fabric
	edge  topology.Edge
	scale float64
	// cscale is the congestion plane's service-rate multiplier (queue
	// occupancy degradation, ECMP collisions, PFC pause). Always 1.0 when
	// congestion is disabled; composed multiplicatively with scale.
	cscale float64
	active []*Transfer
	// parked holds injector-withheld transfers: they consume no bandwidth
	// and deliver nothing until released (VerdictHold) or aborted.
	parked       []*Transfer
	lastUpdate   sim.Time
	nextEv       *sim.Event
	bytesDone    int64
	bytesAborted int64
	// reused scratch for reallocate's stream grouping and class
	// arbitration (hot path: no per-call allocations once warmed up).
	streams     []StreamID
	heads       []*Transfer
	serving     []*Transfer
	classIDs    []ClassID
	classN      []int
	classGrant  []float64
	classGauges []*metrics.Gauge // indexed by ClassID; lazily resolved
	lm          *linkMetrics     // nil when metrics are disabled
}

// advance integrates transferred bytes up to the current virtual time and
// delivers any transfer that completed exactly now.
func (l *link) advance() {
	now := l.fab.eng.Now()
	dt := (now - l.lastUpdate).Seconds()
	l.lastUpdate = now
	if dt > 0 {
		for _, t := range l.active {
			t.remaining -= t.rate * dt
		}
	}
	// Filter in place: the backing array is reused across calls, so the
	// per-event integration step allocates nothing.
	still := l.active[:0]
	for _, t := range l.active {
		if t.remaining <= epsilonBytes {
			l.deliver(t)
			continue
		}
		still = append(still, t)
	}
	for i := len(still); i < len(l.active); i++ {
		l.active[i] = nil
	}
	l.active = still
}

// reallocate recomputes per-transfer rates and schedules the next
// completion event. Within one stream the transfers are served FIFO — the
// whole stream allowance goes to the oldest in-flight chunk — matching
// in-order byte-stream delivery; an equal split would make queued chunks
// of a stream complete together (a convoy), which breaks downstream chunk
// pipelining.
//
// Across streams the arbitration is class-aware, at chunk granularity:
//
//   - Only the highest priority present among the stream heads is served,
//     except that a chunk already mid-transmission is never preempted —
//     it keeps (its share of) the link until it completes, and newly
//     arrived higher-priority chunks share with it until then.
//   - Serving classes split capacity by weight. A named class's weight is
//     counted once no matter how many of its streams are serving (the
//     class splits its own share FIFO-fairly among them), so a group
//     cannot grow its link share by opening more streams. Default-class
//     (ClassID 0) streams are each their own weight-1 flow, which makes a
//     fabric with no registered classes behave exactly like the
//     historical equal per-stream split.
//   - The per-stream cap still applies to each head after weighting.
func (l *link) reallocate() {
	if l.nextEv != nil {
		l.fab.eng.Cancel(l.nextEv)
		l.nextEv = nil
	}
	if len(l.active) == 0 {
		if l.lm != nil {
			l.lm.utilization.Set(l.fab.eng.Now(), 0)
		}
		return
	}
	// A link carries few distinct streams at once, so linear scans over
	// reused scratch slices beat per-call map allocations on the hot path.
	classes := l.fab.classes
	seen := l.streams[:0]
	heads := l.heads[:0]
	maxPrio := math.MinInt64
	for _, t := range l.active { // insertion order = FIFO per stream
		found := false
		for _, s := range seen {
			if s == t.stream {
				found = true
				break
			}
		}
		if found {
			t.rate = 0 // queued behind its stream's head
			continue
		}
		seen = append(seen, t.stream)
		heads = append(heads, t)
		if p := classes[t.class].Priority; p > maxPrio {
			maxPrio = p
		}
	}
	l.streams = seen
	l.heads = heads
	// Serving set: top-priority heads plus any head already on the wire
	// (remaining < size ⇒ it has received bandwidth; no mid-chunk
	// preemption). Everything else waits at rate 0.
	serving := l.serving[:0]
	for _, t := range heads {
		if classes[t.class].Priority == maxPrio || t.remaining < float64(t.size) {
			serving = append(serving, t)
		} else {
			t.rate = 0
		}
	}
	l.serving = serving
	// Weight accounting: each default-class head contributes 1; each named
	// class contributes its weight once, split over its serving heads.
	cids := l.classIDs[:0]
	cns := l.classN[:0]
	totalW := 0.0
	for _, t := range serving {
		if t.class == 0 {
			totalW++
			continue
		}
		idx := -1
		for i, id := range cids {
			if id == t.class {
				idx = i
				break
			}
		}
		if idx < 0 {
			cids = append(cids, t.class)
			cns = append(cns, 1)
			totalW += classes[t.class].Weight
		} else {
			cns[idx]++
		}
	}
	l.classIDs, l.classN = cids, cns
	capacity := l.edge.BandwidthBps * l.scale * l.cscale
	grant := l.classGrant[:0]
	for range cids {
		grant = append(grant, 0)
	}
	l.classGrant = grant
	soonest := math.Inf(1)
	granted := 0.0
	for _, t := range serving {
		var share float64
		if t.class == 0 {
			share = capacity / totalW
		} else {
			for i, id := range cids {
				if id == t.class {
					share = capacity * classes[t.class].Weight / totalW / float64(cns[i])
					break
				}
			}
		}
		if cap := l.edge.PerStreamBps; cap > 0 && cap < share {
			share = cap
		}
		t.rate = share
		granted += share
		if t.class != 0 {
			for i, id := range cids {
				if id == t.class {
					grant[i] += share
					break
				}
			}
		}
		if share > 0 {
			if sec := t.remaining / share; sec < soonest {
				soonest = sec
			}
		}
	}
	if l.lm != nil {
		now := l.fab.eng.Now()
		l.lm.queueDepth.Observe(now, float64(len(l.active)))
		util := 0.0
		if capacity > 0 {
			util = granted / capacity
		}
		l.lm.utilization.Set(now, util)
		for i, id := range cids {
			share := 0.0
			if capacity > 0 {
				share = grant[i] / capacity
			}
			l.classShareGauge(id).Set(now, share)
		}
	}
	if math.IsInf(soonest, 1) || soonest > maxScheduleSeconds {
		return // link stalled; a future SetScale (or Abort) will reschedule
	}
	// Round up to the next nanosecond: rounding down could fire the
	// completion event fractionally early and spin without progress.
	d := time.Duration(math.Ceil(soonest * float64(time.Second)))
	l.nextEv = l.fab.eng.CallAfter(d, l)
}

// Call handles the link's next-completion event: it integrates progress and
// recomputes rates. The handle discipline of Engine.CallAfter holds because
// nextEv is dropped here before anything else can observe it, and dropped
// at the (single) Cancel site in reallocate.
func (l *link) Call() {
	l.nextEv = nil
	l.advance()
	l.reallocate()
	if l.fab.cong != nil {
		l.fab.cong.touch(l.edge.ID)
	}
}

// deliver finishes a transfer: counts its bytes and fires the arrival
// callback after the link latency α. The transfer itself is the scheduled
// callback (see Transfer.Call), so delivery allocates nothing; it is
// recycled once the callback has fired.
func (l *link) deliver(t *Transfer) {
	l.bytesDone += t.size
	if l.lm != nil {
		now := l.fab.eng.Now()
		l.lm.bytes.Add(now, float64(t.size))
		l.lm.wait.ObserveDuration(now, time.Duration(now-t.started))
	}
	if t.onArrive == nil && t.arr == nil {
		*t = Transfer{}
		l.fab.free = append(l.fab.free, t)
		return
	}
	l.fab.eng.DoCallAfter(l.edge.Alpha, t)
}
