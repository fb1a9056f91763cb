package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Parallel runs several Engines — domains — under conservative-lookahead
// synchronization, the classic windowed (YAWNS-style) parallel
// discrete-event scheme:
//
//   - Each domain owns a local clock, heap and sequence counter (it is a
//     plain *Engine), so everything scheduled inside a domain fires in the
//     engine's usual deterministic (time, seq) order.
//   - Domains interact only through Post, which delivers a callback into
//     another domain at least `lookahead` of virtual time in the future.
//     Lookahead is the minimum cross-domain link latency: a message sent
//     now cannot be observed remotely sooner than that, which is what
//     bounds the clock skew between domains.
//   - Run repeatedly computes the global minimum next-event time Tmin and
//     lets every domain advance in parallel through the window
//     [Tmin, Tmin+lookahead] (inclusive). Any Post issued inside the
//     window carries a timestamp >= Tmin+lookahead, i.e. outside it, so
//     no domain can receive an event in its own past: causality holds
//     without rollback.
//   - At the window barrier, posted events are merged into their target
//     domains in a deterministic order — (time, then source domain, then
//     per-source sequence) — so the execution is bit-identical for any
//     worker count, including 1.
//
// With a single domain there are no windows at all: Run simply drains the
// engine, which makes the single-domain path byte-identical to Engine.Run.
//
// User callbacks must respect the partitioning: state owned by one domain
// may be touched only from that domain's events (Post a closure to mutate
// another domain's state). The barrier establishes the happens-before edge
// for the closure's captured values.
type Parallel struct {
	lookahead time.Duration
	domains   []*Engine
	names     []string
	inbox     [][]post   // per destination, pending merge
	outbox    [][][]post // [src][dst]: filled during a window by src only
	stats     []DomainStats
	windows   uint64
	runWall   time.Duration
	ran       bool
}

// post is one cross-domain boundary event awaiting its merge.
type post struct {
	at Time
	fn func()
}

// DomainStats is the per-domain accounting the coordinator keeps at window
// barriers (single-threaded points, so collection is race-free).
type DomainStats struct {
	// Name labels the domain (metrics, debugging).
	Name string
	// Fired counts events executed in this domain.
	Fired uint64
	// Stalls counts windows in which the domain had no event inside the
	// lookahead horizon and could only wait at the barrier.
	Stalls uint64
	// MaxQueueDepth is the largest pending-event count observed at any
	// window barrier.
	MaxQueueDepth int
	// BusyWall is the accumulated real time the domain spent executing
	// events (the basis of the speedup estimate).
	BusyWall time.Duration
}

// NewParallel returns a coordinator with the given lookahead. Lookahead
// must be positive once a second domain exists; a single-domain Parallel
// may use zero.
func NewParallel(lookahead time.Duration) *Parallel {
	if lookahead < 0 {
		panic("sim: negative lookahead")
	}
	return &Parallel{lookahead: lookahead}
}

// Lookahead returns the conservative window width.
func (p *Parallel) Lookahead() time.Duration { return p.lookahead }

// NewDomain adds a domain and returns its index and engine. The engine's
// random stream derives from seed. Domains must all be added before Run.
func (p *Parallel) NewDomain(name string, seed int64) (int, *Engine) {
	if p.ran {
		panic("sim: NewDomain after Run")
	}
	id := len(p.domains)
	eng := NewEngine(seed)
	p.domains = append(p.domains, eng)
	if name == "" {
		name = fmt.Sprintf("domain%d", id)
	}
	p.names = append(p.names, name)
	return id, eng
}

// Domain returns the engine of domain i.
func (p *Parallel) Domain(i int) *Engine { return p.domains[i] }

// Post schedules fn to run in domain dst, delay after domain src's current
// time. This is the only legal cross-domain channel. The delay must be at
// least the lookahead — that is the conservative contract that makes the
// windowed schedule causal — and posting with a shorter delay panics.
// Posts merge into the destination at the next window barrier, ordered by
// (time, source domain, per-source issue order).
func (p *Parallel) Post(src, dst int, delay time.Duration, fn func()) {
	if delay < p.lookahead {
		panic(fmt.Sprintf("sim: cross-domain post with delay %v below lookahead %v", delay, p.lookahead))
	}
	p.ensureBoxes()
	at := p.domains[src].Now() + delay
	p.outbox[src][dst] = append(p.outbox[src][dst], post{at: at, fn: fn})
}

// ensureBoxes allocates the inbox/outbox matrices. Called from Post and Run
// (never from worker goroutines: the first Post of a window happens inside
// an event, by which point Run has long since allocated).
func (p *Parallel) ensureBoxes() {
	if p.inbox != nil {
		return
	}
	n := len(p.domains)
	p.inbox = make([][]post, n)
	p.outbox = make([][][]post, n)
	for i := range p.outbox {
		p.outbox[i] = make([][]post, n)
	}
}

// Run executes all domains to completion on the given number of workers
// (values below 1 are treated as 1). It is deterministic for every worker
// count: the firing schedule depends only on the domains' initial events
// and the merge order, never on thread interleaving.
func (p *Parallel) Run(workers int) {
	start := time.Now()
	defer func() { p.runWall += time.Since(start) }()
	if workers < 1 {
		workers = 1
	}
	p.ran = true
	n := len(p.domains)
	if p.stats == nil {
		p.stats = make([]DomainStats, n)
		for i := range p.stats {
			p.stats[i].Name = p.names[i]
		}
	}
	if n == 1 {
		// Degenerate partition: no boundaries, no windows. Draining the
		// engine directly keeps this path byte-identical to Engine.Run.
		d := p.domains[0]
		before := d.Fired()
		d.Run()
		p.stats[0].Fired += d.Fired() - before
		p.stats[0].BusyWall += time.Since(start)
		return
	}
	if p.lookahead <= 0 {
		panic("sim: multi-domain Parallel requires positive lookahead")
	}
	p.ensureBoxes()
	if workers > n {
		workers = n
	}
	for {
		// Merge pending boundary events (already in deterministic order:
		// drainOutboxes concatenates by source domain, then sorts stably
		// by time). Scheduling through At assigns destination-local seqs
		// in exactly that order.
		for dst, in := range p.inbox {
			d := p.domains[dst]
			for _, ev := range in {
				d.At(ev.at, ev.fn)
			}
			p.inbox[dst] = in[:0]
		}
		// Global minimum next-event time over all domains.
		tmin, any := Time(0), false
		for _, d := range p.domains {
			if t, ok := d.NextEventTime(); ok && (!any || t < tmin) {
				tmin, any = t, true
			}
		}
		if !any {
			return
		}
		limit := tmin + p.lookahead
		p.windows++
		if workers == 1 {
			for i, d := range p.domains {
				t0 := time.Now()
				p.windowStep(i, d, limit)
				p.stats[i].BusyWall += time.Since(t0)
			}
		} else {
			var next int64 = -1
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func() {
					defer wg.Done()
					for {
						i := int(atomic.AddInt64(&next, 1))
						if i >= n {
							return
						}
						t0 := time.Now()
						p.windowStep(i, p.domains[i], limit)
						p.stats[i].BusyWall += time.Since(t0)
					}
				}()
			}
			wg.Wait()
		}
		p.drainOutboxes()
	}
}

// windowStep advances one domain through the window ending at limit and
// updates its stats. It runs on the domain's worker goroutine; stats[i] is
// owned by that worker for the duration of the window.
func (p *Parallel) windowStep(i int, d *Engine, limit Time) {
	fired := d.RunWindow(limit)
	s := &p.stats[i]
	s.Fired += uint64(fired)
	if fired == 0 {
		s.Stalls++
	}
	if q := d.Pending(); q > s.MaxQueueDepth {
		s.MaxQueueDepth = q
	}
}

// drainOutboxes moves every posted boundary event into its destination's
// inbox in (time, source domain, issue order) order: sources append in
// index order and the sort is stable on time alone, so equal-time posts
// keep source-then-issue order.
func (p *Parallel) drainOutboxes() {
	for src := range p.outbox {
		for dst, out := range p.outbox[src] {
			if len(out) == 0 {
				continue
			}
			p.inbox[dst] = append(p.inbox[dst], out...)
			p.outbox[src][dst] = out[:0]
		}
	}
	for _, in := range p.inbox {
		if len(in) > 1 {
			stableSortPosts(in)
		}
	}
}

// stableSortPosts sorts by timestamp only, stably (insertion sort: merge
// batches are small — a handful of boundary crossings per window).
func stableSortPosts(ps []post) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].at < ps[j-1].at; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// Now returns the maximum domain clock: the virtual time of the last event
// executed anywhere, matching what a single global engine's clock would
// read after the same workload.
func (p *Parallel) Now() Time {
	var t Time
	for _, d := range p.domains {
		if n := d.Now(); n > t {
			t = n
		}
	}
	return t
}

// Fired returns the total events executed across all domains.
func (p *Parallel) Fired() uint64 {
	var n uint64
	for _, d := range p.domains {
		n += d.Fired()
	}
	return n
}

// Windows returns how many lookahead windows Run has executed.
func (p *Parallel) Windows() uint64 { return p.windows }

// Stats returns a copy of the per-domain accounting.
func (p *Parallel) Stats() []DomainStats {
	out := make([]DomainStats, len(p.stats))
	copy(out, p.stats)
	return out
}

// SpeedupEstimate reports the parallelism the run extracted: the summed
// per-domain busy wall time divided by the coordinator's total wall time.
// 1.0 means the run was effectively serial (one domain, or windows too
// small to overlap); values approaching the worker count mean near-linear
// scaling. It is a wall-clock measurement and therefore not deterministic.
func (p *Parallel) SpeedupEstimate() float64 {
	if p.runWall <= 0 {
		return 0
	}
	var busy time.Duration
	for i := range p.stats {
		busy += p.stats[i].BusyWall
	}
	return float64(busy) / float64(p.runWall)
}
