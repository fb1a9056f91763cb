package fabric

import (
	"fmt"
	"time"

	"adapcc/internal/sim"
	"adapcc/internal/topology"
)

// Sharded is the partitioned data plane: one independent Fabric per
// simulation domain, coordinated by a sim.Parallel whose lookahead is the
// partition's minimum cross-domain link latency.
//
// Callers address the data plane in global terms — global edge ids and
// global node paths — and Sharded routes each transfer to the owning
// domain's fabric. An intra-domain edge behaves exactly as in a monolithic
// Fabric. A cross-domain edge is simulated in two halves that reproduce the
// monolithic timing bit for bit: serialization (with all its contention)
// runs in the source domain over the partition's zero-α leg, and the link
// latency α is then paid as the cross-domain post delay, so the arrival
// callback fires in the destination domain at exactly serialization-end+α —
// the same instant a single-engine simulation would deliver it.
//
// With a single-domain partition there are no cross edges and sim.Parallel
// drains the lone engine directly, so a Sharded over the trivial partition
// is byte-identical in timing to a plain Fabric over the global graph.
type Sharded struct {
	par  *sim.Parallel
	part *topology.Partition
	fabs []*Fabric
	// globalEdge[d][local] maps domain d's local edge ids back to global
	// edge ids (every subgraph edge — intra-domain replica or cross-edge
	// serialization leg — comes from exactly one global edge).
	globalEdge [][]topology.EdgeID
	// recov counts recovery events per domain, split by fault locality.
	// Each entry is written only from its owning domain's events, so the
	// slice is race-free under the worker pool; fold with RecoveryEvents.
	recov []RecoveryCounters
}

// RecoveryCounters tallies recovery events recorded against one domain (see
// RecordRecovery), split by the locality of the fault that triggered them.
type RecoveryCounters struct {
	// DomainLocal counts recoveries from faults on edges whose re-route
	// stayed inside the owning domain.
	DomainLocal uint64
	// Boundary counts recoveries from faults on cross-domain (or
	// foreign-domain) edges.
	Boundary uint64
}

// NewSharded builds one fabric per domain of the partition. Domain d's
// engine is seeded with seed+d, so a given (partition, seed) pair fully
// determines the simulation regardless of worker count.
func NewSharded(part *topology.Partition, seed int64) *Sharded {
	par := sim.NewParallel(part.Lookahead)
	s := &Sharded{
		par:        par,
		part:       part,
		fabs:       make([]*Fabric, part.Domains),
		globalEdge: make([][]topology.EdgeID, part.Domains),
		recov:      make([]RecoveryCounters, part.Domains),
	}
	for d := 0; d < part.Domains; d++ {
		_, eng := par.NewDomain(fmt.Sprintf("domain%d", d), seed+int64(d))
		s.fabs[d] = New(eng, part.Subs[d])
		s.globalEdge[d] = make([]topology.EdgeID, part.Subs[d].NumEdges())
	}
	for ge := 0; ge < part.Graph.NumEdges(); ge++ {
		d := part.EdgeDomain[ge]
		s.globalEdge[d][part.EdgeLocal[ge]] = topology.EdgeID(ge)
	}
	return s
}

// Parallel returns the coordinator.
func (s *Sharded) Parallel() *sim.Parallel { return s.par }

// Partition returns the topology partition the fabrics are built over.
func (s *Sharded) Partition() *topology.Partition { return s.part }

// Fabric returns domain d's fabric.
func (s *Sharded) Fabric(d int) *Fabric { return s.fabs[d] }

// Engine returns domain d's engine (for scheduling domain-local events).
func (s *Sharded) Engine(d int) *sim.Engine { return s.par.Domain(d) }

// Run executes all domains to completion on the given worker count. The
// result is deterministic for any worker count (see sim.Parallel).
func (s *Sharded) Run(workers int) { s.par.Run(workers) }

// GlobalEdge maps domain d's local edge id back to the global edge id.
func (s *Sharded) GlobalEdge(d int, local topology.EdgeID) topology.EdgeID {
	return s.globalEdge[d][local]
}

// SetInjector installs (or, with nil, removes) an admission-control hook on
// every domain fabric. The injector sees global edge ids — each domain's
// local admissions are translated through the partition's reverse edge map
// before the injector is consulted — so one chaos schedule written against
// the global graph drives all domains, including the serialization legs of
// cross-domain boundary links. The injector's Admit is called from domain
// events concurrently across domains; it must keep any mutable state
// per-domain (see chaos.Sharded).
func (s *Sharded) SetInjector(inj Injector) {
	for d := range s.fabs {
		if inj == nil {
			s.fabs[d].SetInjector(nil)
			continue
		}
		s.fabs[d].SetInjector(&shardInjector{inj: inj, toGlobal: s.globalEdge[d]})
	}
}

// shardInjector adapts a global-edge-id injector to one domain's fabric.
type shardInjector struct {
	inj      Injector
	toGlobal []topology.EdgeID
}

func (si *shardInjector) Admit(edge topology.EdgeID, size int64) (Verdict, time.Duration) {
	return si.inj.Admit(si.toGlobal[edge], size)
}

// SetScaleGlobal re-scales a global edge's bandwidth on the owning domain's
// fabric. It must be called from that domain's events (or before Run): the
// owning domain is EdgeDomain[ge], i.e. the domain of the edge's From node.
func (s *Sharded) SetScaleGlobal(ge topology.EdgeID, scale float64) {
	s.fabs[s.part.EdgeDomain[ge]].SetScale(s.part.EdgeLocal[ge], scale)
}

// ScaleGlobal reads a global edge's current bandwidth scale. Like
// SetScaleGlobal it is only safe from the owning domain's events.
func (s *Sharded) ScaleGlobal(ge topology.EdgeID) float64 {
	return s.fabs[s.part.EdgeDomain[ge]].Scale(s.part.EdgeLocal[ge])
}

// GlobalTransfer is an abortable handle on the first hop of a guarded send.
// The zero value is inert (Abort returns false).
type GlobalTransfer struct {
	fab *Fabric
	tr  *Transfer
	gen uint64
}

// Valid reports whether the handle refers to a transfer at all.
func (h GlobalTransfer) Valid() bool { return h.tr != nil }

// Abort withdraws a guarded send while it still occupies its first hop,
// reclaiming the bandwidth; it returns false once the payload has cleared
// that hop (the generation check of Fabric.Abort, preserved across
// SendGlobal/SendPath — a transfer that delivered or forwarded in the same
// instant wins). Like the send itself, Abort must be called from the first
// hop's owning domain.
func (s *Sharded) Abort(h GlobalTransfer) bool {
	if h.tr == nil {
		return false
	}
	return h.fab.Abort(h.tr, h.gen)
}

// RecordRecovery counts one recovery event against domain d, classified by
// fault locality. Call only from domain d's events; read the fold with
// RecoveryEvents after Run.
func (s *Sharded) RecordRecovery(d int, boundary bool) {
	if boundary {
		s.recov[d].Boundary++
	} else {
		s.recov[d].DomainLocal++
	}
}

// RecoveryEvents folds the per-domain recovery counters. Only meaningful
// once Run has returned (or before it starts).
func (s *Sharded) RecoveryEvents() RecoveryCounters {
	var out RecoveryCounters
	for _, c := range s.recov {
		out.DomainLocal += c.DomainLocal
		out.Boundary += c.Boundary
	}
	return out
}

// ShardedCongest addresses the per-domain congestion planes in global
// terms, mirroring SetScaleGlobal's ownership discipline: every mutation
// must come from the owning domain's events (or before Run), where the
// owning domain is EdgeDomain[ge]. chaos.Sharded's congestion kinds are
// the intended caller.
type ShardedCongest struct {
	sh    *Sharded
	congs []*Congest
}

// EnableCongestion installs a congestion plane on every domain fabric with
// one-hop pause propagation over the *global* graph: a domain's subgraph
// does not contain foreign in-edges at its ghost nodes, so the upstream
// walk enumerates global in-edges and posts pause deltas to foreign owning
// domains with the partition's lookahead as the propagation delay (the
// simulated flight time of a pause frame across the boundary).
func (s *Sharded) EnableCongestion(opts CongestOptions) *ShardedCongest {
	sc := &ShardedCongest{sh: s, congs: make([]*Congest, s.part.Domains)}
	for d := range s.fabs {
		sc.congs[d] = s.fabs[d].EnableCongestion(opts)
	}
	for d := range s.fabs {
		d := d
		sc.congs[d].upstream = func(local topology.EdgeID, delta int) {
			ge := s.globalEdge[d][local]
			from := s.part.Graph.Edge(ge).From
			for _, ue := range s.part.Graph.In(from) {
				if !s.part.Graph.Edge(ue).Type.Network() {
					continue
				}
				dd := s.part.EdgeDomain[ue]
				le := s.part.EdgeLocal[ue]
				if dd == d {
					sc.congs[d].PauseDelta(le, delta)
					continue
				}
				delta := delta
				s.par.Post(d, dd, s.part.Lookahead, func() {
					sc.congs[dd].PauseDelta(le, delta)
				})
			}
		}
	}
	return sc
}

// Congestion returns the sharded congestion plane, or nil when disabled.
func (s *Sharded) Congestion() *ShardedCongest {
	if s.fabs[0].Congestion() == nil {
		return nil
	}
	sc := &ShardedCongest{sh: s, congs: make([]*Congest, len(s.fabs))}
	for d := range s.fabs {
		sc.congs[d] = s.fabs[d].Congestion()
	}
	return sc
}

// Domain returns domain d's congestion plane.
func (sc *ShardedCongest) Domain(d int) *Congest { return sc.congs[d] }

// SetPhantomGlobal installs a standing phantom load on a global edge's
// queue. Owning-domain events only.
func (sc *ShardedCongest) SetPhantomGlobal(ge topology.EdgeID, bytes int64) {
	sc.congs[sc.sh.part.EdgeDomain[ge]].SetPhantom(sc.sh.part.EdgeLocal[ge], bytes)
}

// SetCollisionGlobal sets a global edge's ECMP-collision multiplier.
// Owning-domain events only.
func (sc *ShardedCongest) SetCollisionGlobal(ge topology.EdgeID, factor float64) {
	sc.congs[sc.sh.part.EdgeDomain[ge]].SetCollision(sc.sh.part.EdgeLocal[ge], factor)
}

// ForcePauseGlobal forces (or withdraws) a rogue pause assertion on a
// global edge. Owning-domain events only.
func (sc *ShardedCongest) ForcePauseGlobal(ge topology.EdgeID, on bool) {
	sc.congs[sc.sh.part.EdgeDomain[ge]].ForcePause(sc.sh.part.EdgeLocal[ge], on)
}

// MaxQueueBytesGlobal returns a global edge's high-water queue occupancy.
// Only meaningful once Run has returned (or from owning-domain events).
func (sc *ShardedCongest) MaxQueueBytesGlobal(ge topology.EdgeID) int64 {
	return sc.congs[sc.sh.part.EdgeDomain[ge]].MaxQueueBytes(sc.sh.part.EdgeLocal[ge])
}

// PauseFrames folds the per-domain pause-frame counters. Only meaningful
// once Run has returned (or before it starts).
func (sc *ShardedCongest) PauseFrames() uint64 {
	var total uint64
	for _, c := range sc.congs {
		total += c.PauseFrames()
	}
	return total
}

// SendGlobal transfers size bytes over one global edge. Like Fabric.Send,
// onArrive fires after serialization plus the edge's α — but in the domain
// owning the edge's destination node, which for a cross-domain edge differs
// from the domain that simulates the serialization. It must be called from
// the source domain (an event on that domain's engine, or before Run). The
// returned handle aborts the transfer while it is still serializing (see
// Abort); for a cross edge the handle covers the serialization leg — once
// the payload is in the α-flight of the cross-domain post it is considered
// delivered and Abort reports false.
func (s *Sharded) SendGlobal(ge topology.EdgeID, size int64, payload any, onArrive func(payload any)) GlobalTransfer {
	d := s.part.EdgeDomain[ge]
	local := s.part.EdgeLocal[ge]
	fab := s.fabs[d]
	var tr *Transfer
	if ci := s.part.EdgeCross[ge]; ci >= 0 {
		ce := s.part.Cross[ci]
		tr = fab.Send(local, size, payload, func(p any) {
			s.par.Post(ce.Src, ce.Dst, ce.Global.Alpha, func() { onArrive(p) })
		})
	} else {
		tr = fab.Send(local, size, payload, onArrive)
	}
	return GlobalTransfer{fab: fab, tr: tr, gen: tr.Gen()}
}

// SendPath store-and-forwards size bytes along a path of global node ids:
// the payload fully serializes over each hop before entering the next, each
// hop simulated in (and contending within) the domain that owns it.
// onArrive fires in the final node's domain. Panics if consecutive path
// nodes are not connected in the global graph. The returned handle aborts
// the transfer while it still occupies the first hop (owned by the sender's
// domain); past that it reports false, the "already left the sender"
// semantics the recovery layer's retransmissions rely on.
func (s *Sharded) SendPath(path []topology.NodeID, size int64, payload any, onArrive func(payload any)) GlobalTransfer {
	if len(path) < 2 {
		panic(fmt.Sprintf("fabric: path %v has no hops", path))
	}
	return s.hop(path, 0, size, payload, onArrive)
}

func (s *Sharded) hop(path []topology.NodeID, i int, size int64, payload any, onArrive func(payload any)) GlobalTransfer {
	ge, ok := s.part.Graph.EdgeBetween(path[i], path[i+1])
	if !ok {
		panic(fmt.Sprintf("fabric: path hop %v -> %v has no edge", path[i], path[i+1]))
	}
	if i+2 == len(path) {
		return s.SendGlobal(ge, size, payload, onArrive)
	}
	return s.SendGlobal(ge, size, payload, func(p any) { s.hop(path, i+1, size, p, onArrive) })
}
