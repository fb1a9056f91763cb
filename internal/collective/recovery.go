package collective

import (
	"fmt"
	"time"

	"adapcc/internal/topology"
	"adapcc/internal/trace"
)

// Recovery defaults. The deadline multiple is deliberately loose: a chunk's
// modelled time assumes an uncontended link at nominal bandwidth, and a
// healthy transfer can legitimately run several times slower when many
// streams share the edge. The floor keeps tiny chunks from racing their own
// launch latency.
const (
	DefaultDeadlineMult  = 16.0
	DefaultDeadlineFloor = 2 * time.Millisecond
	DefaultMaxRetries    = 4
	DefaultRetryBackoff  = 500 * time.Microsecond
)

// Recovery configures chunk-granularity fault detection for one collective
// (Op.Recovery). When set, every chunk transfer is guarded by a deadline
// with bounded exponential-backoff retransmission, and the whole op by a
// progress watchdog that catches hung kernels/workers; exhausting either
// budget declares a fault via OnFault instead of hanging. Nil (the default)
// disables all of it at the cost of two pointer comparisons per chunk hop.
type Recovery struct {
	// DeadlineMult scales a chunk's nominal transfer time (α + bytes at
	// nominal bandwidth) into its delivery deadline (default 16; the
	// deadline doubles on every retry of the same chunk).
	DeadlineMult float64
	// DeadlineFloor is the minimum per-chunk deadline (default 2 ms).
	DeadlineFloor time.Duration
	// MaxRetries bounds retransmissions per chunk hop (default 4); the
	// retry after which the hop's link is declared faulted.
	MaxRetries int
	// Backoff is the first retransmission delay, doubling per retry
	// (default 500 µs).
	Backoff time.Duration
	// StallTimeout is the op-level progress deadline: if no chunk arrives,
	// no retry fires and no kernel retires for this long, the op declares
	// a stall fault. Zero disables the watchdog, leaving the chunk
	// deadlines only.
	StallTimeout time.Duration
	// OnFault receives the first (and only) fault declaration of the op.
	// The op is dead afterwards: its OnDone never fires, and the caller —
	// typically core.RunResilient — excludes the reported link or rank
	// and re-synthesizes over the surviving topology.
	OnFault func(FaultReport)
}

// normalized returns a copy with defaults applied.
func (r Recovery) normalized() Recovery {
	if r.DeadlineMult <= 0 {
		r.DeadlineMult = DefaultDeadlineMult
	}
	if r.DeadlineFloor <= 0 {
		r.DeadlineFloor = DefaultDeadlineFloor
	}
	if r.MaxRetries <= 0 {
		r.MaxRetries = DefaultMaxRetries
	}
	if r.Backoff <= 0 {
		r.Backoff = DefaultRetryBackoff
	}
	return r
}

// FaultKind classifies a fault declaration.
type FaultKind int

const (
	// LinkFault: a chunk exhausted its retransmission budget on one edge.
	LinkFault FaultKind = iota
	// StallFault: the op made no progress for StallTimeout (hung kernel,
	// crashed worker with nothing left in flight).
	StallFault
)

func (k FaultKind) String() string {
	if k == LinkFault {
		return "link"
	}
	return "stall"
}

// FaultReport describes an unrecoverable fault detected mid-collective.
type FaultReport struct {
	Kind FaultKind
	// Edge and its endpoints, for LinkFault (Edge is -1 for StallFault).
	Edge     topology.EdgeID
	From, To topology.NodeID
	// Rank is the implicated worker for StallFault (the rank with a hung
	// aggregation kernel), or -1 when no single rank can be blamed.
	Rank int
	// Retries is how many retransmissions were spent before declaring.
	Retries int
	// At is the absolute virtual time of the declaration; At-Started is
	// the detection latency.
	At      time.Duration
	Started time.Duration
}

func (r FaultReport) String() string {
	if r.Kind == LinkFault {
		return fmt.Sprintf("link fault on edge %d (%v->%v) after %d retries at %v",
			r.Edge, r.From, r.To, r.Retries, r.At)
	}
	return fmt.Sprintf("stall fault (rank %d) at %v", r.Rank, r.At)
}

// RecoveryStats counts detection and retry activity across an executor's
// lifetime (all ops).
type RecoveryStats struct {
	// Deadlines is how many chunk transfers were aborted by their deadline.
	Deadlines int
	// Retransmits is how many aborted chunks were re-posted.
	Retransmits int
	// LinkFaults / StallFaults are the fault declarations by kind.
	LinkFaults  int
	StallFaults int
}

// RecoveryStats returns the executor's accumulated detection/retry counters.
func (e *Executor) RecoveryStats() RecoveryStats { return e.stats }

// armDeadline schedules this hop's delivery deadline: the chunk's nominal
// uncontended time scaled by DeadlineMult, floored, and doubled per retry
// already spent.
func (h *hopSend) armDeadline() {
	op := h.s.op
	rec := op.rec
	e := op.ex.fab.Graph().Edge(h.eid)
	nominal := e.Alpha + time.Duration(float64(h.bytes)/e.BandwidthBps*1e9)
	d := time.Duration(rec.DeadlineMult * float64(nominal))
	if d < rec.DeadlineFloor {
		d = rec.DeadlineFloor
	}
	if n := h.retries; n > 0 {
		if n > 16 {
			n = 16
		}
		d <<= uint(n)
	}
	h.watchdog = op.engine().After(d, h.onDeadline)
}

// onDeadline fires when a chunk missed its delivery deadline: withdraw it
// from the link and either retransmit (bounded, exponential backoff) or
// declare the link faulted. If the withdrawal fails the chunk was actually
// delivered — its arrival callback is pending behind the link latency — and
// the deadline stands down; OnArrive still owns this struct.
func (h *hopSend) onDeadline() {
	h.watchdog = nil
	op := h.s.op
	if !op.ex.fab.Abort(h.transfer, h.tgen) {
		return
	}
	h.transfer, h.tgen = nil, 0
	op.ex.stats.Deadlines++
	op.stats.Deadlines++
	if em := op.ex.em; em != nil {
		em.deadlines.Inc(op.engine().Now())
	}
	if op.failed {
		op.ex.putHop(h)
		return
	}
	rec := op.rec
	if h.retries >= rec.MaxRetries {
		e := op.ex.fab.Graph().Edge(h.eid)
		rep := FaultReport{
			Kind:    LinkFault,
			Edge:    h.eid,
			From:    e.From,
			To:      e.To,
			Rank:    -1,
			Retries: h.retries,
			At:      op.engine().Now(),
			Started: op.started,
		}
		h.s.traceFault(h.msg, h.eid)
		op.ex.stats.LinkFaults++
		op.ex.putHop(h)
		op.fail(rep)
		return
	}
	h.retries++
	op.ex.stats.Retransmits++
	op.stats.Retransmits++
	if em := op.ex.em; em != nil {
		em.retransmits.Inc(op.engine().Now())
	}
	op.progress()
	h.s.traceRetry(h.msg, h.eid, h.retries)
	backoff := rec.Backoff << uint(h.retries-1)
	op.engine().DoCallAfter(backoff, h)
}

// progress stamps op-level liveness for the stall watchdog.
func (r *opRun) progress() {
	r.lastProgress = r.engine().Now()
}

// fail declares the op's single fault: it never completes (OnDone does not
// fire) and every still-pending callback of the run becomes a no-op. The
// arena is deliberately NOT released — aggregation kernels already queued on
// device streams will still retire (harmlessly, guarded) and read their
// scratch buffers; releasing those buffers to the next attempt's op would
// corrupt it. One dead run's scratch is the (bounded) price of a fault.
func (r *opRun) fail(rep FaultReport) {
	if r.failed || r.finished {
		return
	}
	r.failed = true
	if reg := r.ex.reg; reg != nil {
		// Cold path: faults are rare, so the per-kind counter is resolved
		// on demand rather than pre-bound.
		reg.Counter("adapcc_collective_faults_total",
			"fault declarations by kind", "kind", rep.Kind.String()).
			Inc(r.engine().Now())
	}
	if r.rec.OnFault != nil {
		r.rec.OnFault(rep)
	}
}

// progressWatch is the op-level stall watchdog: it re-arms itself against
// the latest progress stamp and declares a StallFault when the op has been
// idle for StallTimeout — the case chunk deadlines cannot see, e.g. a hung
// aggregation kernel with nothing left in flight.
type progressWatch struct{ op *opRun }

func (w *progressWatch) Call() {
	op := w.op
	if op.failed || op.finished {
		return
	}
	rec := op.rec
	idle := op.engine().Now() - op.lastProgress
	if idle < rec.StallTimeout {
		op.engine().DoCallAfter(rec.StallTimeout-idle, w)
		return
	}
	op.ex.stats.StallFaults++
	op.fail(FaultReport{
		Kind:    StallFault,
		Edge:    -1,
		Rank:    op.culprit(),
		At:      op.engine().Now(),
		Started: op.started,
	})
}

// culprit names the rank responsible for a stall: first a rank with an
// aggregation kernel launched but not retired (a hung device), else -1
// (unattributable — e.g. every in-flight path is parked, which the chunk
// deadlines will catch on their own schedule).
func (r *opRun) culprit() int {
	best := -1
	for rank, n := range r.pendingKernels {
		if n > 0 && (best == -1 || rank < best) {
			best = rank
		}
	}
	return best
}

// traceRetry records a chunk retransmission as an instant on the link track.
func (s *subRun) traceRetry(msg chunkMsg, eid topology.EdgeID, attempt int) {
	tr := s.op.ex.tracer
	if tr == nil {
		return
	}
	tr.Add(trace.Event{
		Name:  fmt.Sprintf("retry s%d f%d c%d #%d", s.idx, msg.flowIdx, msg.chunk, attempt),
		Cat:   "recovery",
		PID:   NetPID,
		TID:   int(eid),
		Start: s.op.engine().Now(),
		Phase: trace.Instant,
	})
}

// traceFault records a fault declaration as an instant on the link track.
func (s *subRun) traceFault(msg chunkMsg, eid topology.EdgeID) {
	tr := s.op.ex.tracer
	if tr == nil {
		return
	}
	tr.Add(trace.Event{
		Name:  fmt.Sprintf("FAULT s%d f%d c%d", s.idx, msg.flowIdx, msg.chunk),
		Cat:   "recovery",
		PID:   NetPID,
		TID:   int(eid),
		Start: s.op.engine().Now(),
		Phase: trace.Instant,
	})
}
