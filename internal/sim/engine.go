// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an ordered queue of events.
// All AdapCC substrates (network fabric, simulated GPUs, training loops)
// schedule work on one shared Engine so that an entire distributed run is
// reproducible from a single seed: identical seeds produce identical
// timelines, byte-for-byte identical results and identical measurements.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp, measured as an offset from simulation start.
// It shares the representation of time.Duration so arithmetic with durations
// is natural (t + 5*time.Millisecond).
type Time = time.Duration

// Event is a scheduled callback. It is returned by the scheduling methods so
// callers can cancel it before it fires.
type Event struct {
	at     Time
	seq    uint64
	fn     func()
	call   Caller
	idx    int // heap index, -1 when not queued
	dead   bool
	pooled bool // recyclable: the holder drops the handle at fire/cancel
}

// Caller is a pre-bound callback: the receiver itself carries the state a
// closure would capture, so scheduling one on the hot path allocates
// nothing. Interface dispatch on an existing pointer does not box.
type Caller interface{ Call() }

// At returns the virtual time at which the event is (or was) scheduled.
func (e *Event) At() Time { return e.at }

// Engine is a deterministic discrete-event simulator. The zero value is not
// usable; construct with NewEngine.
//
// Engine is not safe for concurrent use: the simulation is single-threaded by
// design, which is what makes it deterministic.
type Engine struct {
	now    Time
	events eventHeap
	seq    uint64
	rng    *rand.Rand
	fired  uint64
	free   []*Event // recycled pooled events
}

// NewEngine returns an engine whose clock starts at zero and whose random
// stream is derived from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random stream. All randomness in a
// simulation must come from this stream (or a stream forked from it with
// Fork) to preserve reproducibility.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fork returns a new independent random stream seeded from the engine's
// stream. Use one fork per logical component so that adding events to one
// component does not perturb another component's randomness.
func (e *Engine) Fork() *rand.Rand { return rand.New(rand.NewSource(e.rng.Int63())) }

// Fired reports how many events have been executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are currently queued.
func (e *Engine) Pending() int { return len(e.events) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it would silently corrupt causality, which is a programming error.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := &Event{at: t, seq: e.seq, fn: fn, idx: -1}
	e.seq++
	heap.Push(&e.events, ev)
	return ev
}

// After schedules fn to run d after the current virtual time. Negative d is
// clamped to zero.
func (e *Engine) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Do schedules fn at absolute virtual time t without returning a handle.
// The backing event is recycled after it fires, so fire-and-forget
// scheduling (the per-chunk hot path: kernel completions, chunk launches,
// arrival callbacks) allocates nothing in steady state. Use At when the
// caller may need to Cancel.
func (e *Engine) Do(t Time, fn func()) {
	e.schedule(t, fn, nil)
}

// DoCall schedules c.Call() at absolute virtual time t, pooled and
// handle-free like Do, but without even the closure: the Caller's receiver
// carries the callback state.
func (e *Engine) DoCall(t Time, c Caller) {
	e.schedule(t, nil, c)
}

// DoCallAfter schedules c.Call() d after now, handle-free like DoCall.
// Negative d is clamped to zero.
func (e *Engine) DoCallAfter(d time.Duration, c Caller) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, nil, c)
}

// CallAfter schedules c.Call() d after now on a pooled event and returns
// the handle so the caller may Cancel it. The handle is strictly
// single-use: the event is recycled both when it fires and when it is
// cancelled, so the holder must drop the handle at exactly those two
// points (the fabric's per-link completion event follows this discipline).
// Prefer After when in doubt — its events are never recycled.
func (e *Engine) CallAfter(d time.Duration, c Caller) *Event {
	if d < 0 {
		d = 0
	}
	return e.schedule(e.now+d, nil, c)
}

// schedule queues a pooled event carrying either fn or c.
func (e *Engine) schedule(t Time, fn func(), c Caller) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	*ev = Event{at: t, seq: e.seq, fn: fn, call: c, idx: -1, pooled: true}
	e.seq++
	heap.Push(&e.events, ev)
	return ev
}

// Cancel prevents ev from firing. Cancelling a nil, already-fired or
// already-cancelled event is a no-op, so callers need no bookkeeping.
// Cancelled pooled events are recycled immediately, so a handle obtained
// from CallAfter must not be touched after cancelling it.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.dead {
		return
	}
	ev.dead = true
	if ev.idx >= 0 {
		heap.Remove(&e.events, ev.idx)
	}
	if ev.pooled {
		ev.fn, ev.call = nil, nil
		e.free = append(e.free, ev)
	}
}

// Step executes the next event, advancing the clock to its timestamp. It
// returns false when no events remain.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev, ok := heap.Pop(&e.events).(*Event)
		if !ok {
			panic("sim: event heap holds non-event")
		}
		if ev.dead {
			continue
		}
		e.now = ev.at
		ev.dead = true
		e.fired++
		fn, call := ev.fn, ev.call
		if ev.pooled {
			// Any handle holder drops the handle at fire time, so the
			// event can be reused as soon as it is off the heap — even
			// by the callback itself.
			ev.fn, ev.call = nil, nil
			e.free = append(e.free, ev)
		}
		if call != nil {
			call.Call()
		} else {
			fn()
		}
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline (even if the queue still holds later events).
//
// Clock-advance semantics, precisely:
//
//   - The deadline is inclusive: an event scheduled at exactly deadline
//     fires, and so does any event it schedules at deadline — the boundary
//     is drained until no event at or before deadline remains.
//   - Same-timestamp events at the boundary fire in FIFO scheduling order
//     (the heap's (time, seq) order), exactly as they would mid-run.
//   - After draining, the clock is at deadline even if no event fired
//     there, so a subsequent After(d) measures from the deadline.
//   - A deadline in the past is a no-op: the clock never moves backwards.
func (e *Engine) RunUntil(deadline Time) {
	e.RunWindow(deadline)
	if e.now < deadline {
		e.now = deadline
	}
}

// RunWindow executes events with timestamps <= limit (inclusive, with the
// same boundary-drain and FIFO guarantees as RunUntil) and returns how many
// fired. Unlike RunUntil it leaves the clock at the last fired event rather
// than forcing it to limit: the parallel coordinator uses it to advance a
// domain through one conservative-lookahead window without disturbing the
// domain's notion of "now" for windows in which it had nothing to do.
func (e *Engine) RunWindow(limit Time) int {
	n := 0
	for {
		ev := e.peek()
		if ev == nil || ev.at > limit {
			return n
		}
		e.Step()
		n++
	}
}

// NextEventTime returns the timestamp of the earliest pending event, if any.
func (e *Engine) NextEventTime() (Time, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// RunFor executes events within the next d of virtual time.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

func (e *Engine) peek() *Event {
	for len(e.events) > 0 {
		ev := e.events[0]
		if !ev.dead {
			return ev
		}
		heap.Pop(&e.events)
	}
	return nil
}

// eventHeap orders events by (time, insertion sequence); the sequence
// tie-break makes same-timestamp execution order deterministic (FIFO).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h *eventHeap) Push(x any) {
	ev, ok := x.(*Event)
	if !ok {
		panic("sim: pushing non-event")
	}
	ev.idx = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}
