// Package chaos is the deterministic fault-injection engine: it turns a
// seed-driven schedule of link and worker faults into simulation events
// (bandwidth re-scaling, transfer loss/stall verdicts, kernel stalls) so
// the recovery path — detect, retransmit, re-synthesize — can be exercised
// and replayed bit-identically. Faults never touch the recovery machinery
// directly; they only perturb the fabric and devices through the same
// public hooks the experiments use, so everything the executor observes is
// an ordinary (if hostile) timeline.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"adapcc/internal/topology"
)

// Kind names one fault archetype.
type Kind string

const (
	// LinkDown zeroes an edge's bandwidth for the window (permanent when
	// the window is open-ended): in-flight chunks stall until deadline.
	LinkDown Kind = "down"
	// LinkFlap toggles an edge between dead and healthy every Period.
	LinkFlap Kind = "flap"
	// Degrade collapses an edge's bandwidth to Scale for the window (the
	// NIC-degradation scenario of Fig. 17/18 made adversarial).
	Degrade Kind = "degrade"
	// Loss drops each new transfer on the edge with probability Prob
	// during the window (blackholed until a deadline reclaims it).
	Loss Kind = "loss"
	// Hold parks each new transfer on the edge for Stall before it enters
	// the link during the window (a paused queue / flapping port buffer).
	Hold Kind = "hold"
	// Crash kills a worker mid-collective: every link touching its GPU
	// goes down permanently and its kernels never retire.
	Crash Kind = "crash"
	// Hang stalls a worker's kernels for the window, then recovers.
	Hang Kind = "hang"
	// Straggler adds Stall to every kernel the worker launches during the
	// window (a slowdown, not a fault — recovery must NOT trigger).
	Straggler Kind = "straggler"
	// Incast parks a standing phantom load of Fanin×256 KiB on the edge's
	// egress queue for the window (a fan-in burst the collective cannot
	// see), driving queue-occupancy degradation and possibly PFC.
	Incast Kind = "incast"
	// HashCollide halves (Scale, default 0.5) the edge's service rate for
	// the window — an ECMP hash collision from the victim flow's view.
	// "link=" is accepted as an alias of "edge=".
	HashCollide Kind = "hashcollide"
	// PFCStorm forces a rogue pause assertion onto a port for the window:
	// real traffic then piles up behind it and the congestion plane spreads
	// pause frames upstream on its own. Target an edge, or a pod (the pod's
	// first switch→switch uplink, sharded engine only).
	PFCStorm Kind = "pfcstorm"
)

// allKinds is the parse-time vocabulary; RandomSpec draws only from
// classicKinds so historical soak schedules replay unchanged, and
// congestion kinds come from RandomCongestSpec (they need a fabric with
// the congestion plane enabled).
var allKinds = []Kind{LinkDown, LinkFlap, Degrade, Loss, Hold, Crash, Hang, Straggler,
	Incast, HashCollide, PFCStorm}

var classicKinds = []Kind{LinkDown, LinkFlap, Degrade, Loss, Hold, Crash, Hang, Straggler}

// congestKind reports whether the kind is one of the congestion kinds,
// which drive the fabric's congestion plane instead of scales/verdicts.
func (k Kind) congestKind() bool { return k == Incast || k == HashCollide || k == PFCStorm }

// PerformanceOnly reports whether every fault in the spec is a congestion
// kind — faults that slow traffic down but never drop, corrupt or reorder
// it. A performance-only schedule needs no recovery machinery: the sweep
// finishes on its own, just later.
func (s Spec) PerformanceOnly() bool {
	for _, f := range s.Faults {
		if !f.Kind.congestKind() {
			return false
		}
	}
	return true
}

// Fault is one scheduled fault. Edge faults set Edge; worker faults set
// Rank. Start is relative to Engine.Arm; Dur of 0 means open-ended for
// windowed kinds (down/degrade/loss/hold/hang) and is invalid for flap.
type Fault struct {
	Kind  Kind
	Start time.Duration
	Dur   time.Duration
	// Edge is the target link (down/flap/degrade/loss/hold), -1 otherwise.
	Edge topology.EdgeID
	// Rank is the target worker (crash/hang/straggler), -1 otherwise.
	Rank int
	// Scale is the surviving bandwidth fraction for degrade.
	Scale float64
	// Prob is the per-transfer drop probability for loss.
	Prob float64
	// Period is the flap toggle interval.
	Period time.Duration
	// Stall is the per-transfer park delay (hold) or per-kernel extra
	// latency (straggler).
	Stall time.Duration
	// Fanin is the incast fan-in degree (phantom load = Fanin×256 KiB).
	Fanin int
	// Pod targets a pfcstorm at a pod instead of a named edge (Edge takes
	// precedence when both are set). Parsed clauses default to -1.
	Pod int
}

// Spec is a complete chaos schedule: a seed (driving every probabilistic
// decision, so one Spec replays one timeline) plus the fault list.
type Spec struct {
	Seed   int64
	Faults []Fault
}

// String renders the spec in the grammar ParseSpec accepts.
func (s Spec) String() string {
	parts := make([]string, 0, len(s.Faults)+1)
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	for _, f := range s.Faults {
		parts = append(parts, f.String())
	}
	return strings.Join(parts, ";")
}

// String renders one fault clause, e.g. "loss@2ms+10ms:edge=7,prob=0.3".
func (f Fault) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%s", f.Kind, f.Start)
	if f.Dur > 0 {
		fmt.Fprintf(&b, "+%s", f.Dur)
	}
	var kv []string
	if f.Edge >= 0 {
		kv = append(kv, fmt.Sprintf("edge=%d", f.Edge))
	}
	if f.Rank >= 0 {
		kv = append(kv, fmt.Sprintf("rank=%d", f.Rank))
	}
	if f.Scale > 0 {
		kv = append(kv, fmt.Sprintf("scale=%g", f.Scale))
	}
	if f.Prob > 0 {
		kv = append(kv, fmt.Sprintf("prob=%g", f.Prob))
	}
	if f.Period > 0 {
		kv = append(kv, fmt.Sprintf("period=%s", f.Period))
	}
	if f.Stall > 0 {
		kv = append(kv, fmt.Sprintf("stall=%s", f.Stall))
	}
	if f.Kind == Incast && f.Fanin > 0 {
		kv = append(kv, fmt.Sprintf("fanin=%d", f.Fanin))
	}
	if f.Kind == PFCStorm && f.Pod >= 0 {
		kv = append(kv, fmt.Sprintf("pod=%d", f.Pod))
	}
	if len(kv) > 0 {
		b.WriteByte(':')
		b.WriteString(strings.Join(kv, ","))
	}
	return b.String()
}

// ParseSpec parses the compact chaos grammar:
//
//	spec   := clause (';' clause)*
//	clause := "seed=" int
//	        | kind '@' dur ['+' dur] [':' key '=' val (',' key '=' val)*]
//	kind   := down|flap|degrade|loss|hold|crash|hang|straggler
//	        | incast|hashcollide|pfcstorm
//	key    := edge|link|rank|scale|prob|period|stall|fanin|pod
//
// Durations use Go syntax ("5ms", "1.5s"). Example:
//
//	seed=7;down@5ms+20ms:edge=3;crash@10ms:rank=2;loss@0s+50ms:edge=7,prob=0.3
func ParseSpec(s string) (Spec, error) {
	spec := Spec{}
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("chaos: bad seed %q: %v", rest, err)
			}
			spec.Seed = seed
			continue
		}
		f, err := parseFault(clause)
		if err != nil {
			return Spec{}, err
		}
		spec.Faults = append(spec.Faults, f)
	}
	sort.SliceStable(spec.Faults, func(i, j int) bool {
		return spec.Faults[i].Start < spec.Faults[j].Start
	})
	return spec, nil
}

func parseFault(clause string) (Fault, error) {
	f := Fault{Edge: -1, Rank: -1, Pod: -1}
	head, params, _ := strings.Cut(clause, ":")
	kindStr, when, ok := strings.Cut(head, "@")
	if !ok {
		return f, fmt.Errorf("chaos: clause %q lacks '@start'", clause)
	}
	f.Kind = Kind(kindStr)
	known := false
	for _, k := range allKinds {
		if f.Kind == k {
			known = true
			break
		}
	}
	if !known {
		return f, fmt.Errorf("chaos: unknown fault kind %q", kindStr)
	}
	startStr, durStr, hasDur := strings.Cut(when, "+")
	start, err := time.ParseDuration(startStr)
	if err != nil {
		return f, fmt.Errorf("chaos: bad start in %q: %v", clause, err)
	}
	f.Start = start
	if hasDur {
		dur, err := time.ParseDuration(durStr)
		if err != nil {
			return f, fmt.Errorf("chaos: bad duration in %q: %v", clause, err)
		}
		f.Dur = dur
	}
	if params != "" {
		for _, kv := range strings.Split(params, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return f, fmt.Errorf("chaos: bad param %q in %q", kv, clause)
			}
			switch key {
			case "edge", "link":
				n, err := strconv.Atoi(val)
				if err != nil {
					return f, fmt.Errorf("chaos: bad %s %q: %v", key, val, err)
				}
				f.Edge = topology.EdgeID(n)
			case "rank":
				n, err := strconv.Atoi(val)
				if err != nil {
					return f, fmt.Errorf("chaos: bad rank %q: %v", val, err)
				}
				f.Rank = n
			case "scale":
				if f.Scale, err = strconv.ParseFloat(val, 64); err != nil {
					return f, fmt.Errorf("chaos: bad scale %q: %v", val, err)
				}
			case "prob":
				if f.Prob, err = strconv.ParseFloat(val, 64); err != nil {
					return f, fmt.Errorf("chaos: bad prob %q: %v", val, err)
				}
			case "period":
				if f.Period, err = time.ParseDuration(val); err != nil {
					return f, fmt.Errorf("chaos: bad period %q: %v", val, err)
				}
			case "stall":
				if f.Stall, err = time.ParseDuration(val); err != nil {
					return f, fmt.Errorf("chaos: bad stall %q: %v", val, err)
				}
			case "fanin":
				if f.Fanin, err = strconv.Atoi(val); err != nil {
					return f, fmt.Errorf("chaos: bad fanin %q: %v", val, err)
				}
			case "pod":
				if f.Pod, err = strconv.Atoi(val); err != nil {
					return f, fmt.Errorf("chaos: bad pod %q: %v", val, err)
				}
			default:
				return f, fmt.Errorf("chaos: unknown param %q in %q", key, clause)
			}
		}
	}
	return f, f.validate()
}

func (f Fault) validate() error {
	edgeKind := f.Kind == LinkDown || f.Kind == LinkFlap || f.Kind == Degrade ||
		f.Kind == Loss || f.Kind == Hold || f.Kind == Incast || f.Kind == HashCollide
	if edgeKind && f.Edge < 0 {
		return fmt.Errorf("chaos: %s needs edge=", f.Kind)
	}
	if f.Kind == PFCStorm {
		if f.Edge < 0 && f.Pod < 0 {
			return fmt.Errorf("chaos: pfcstorm needs edge= or pod=")
		}
	} else if !edgeKind && f.Rank < 0 {
		return fmt.Errorf("chaos: %s needs rank=", f.Kind)
	}
	switch f.Kind {
	case LinkFlap:
		if f.Period <= 0 {
			return fmt.Errorf("chaos: flap needs period=")
		}
		if f.Dur <= 0 {
			return fmt.Errorf("chaos: flap needs a bounded +duration")
		}
	case Degrade:
		if f.Scale <= 0 || f.Scale >= 1 {
			return fmt.Errorf("chaos: degrade needs scale in (0,1), got %g", f.Scale)
		}
	case Loss:
		if f.Prob <= 0 || f.Prob > 1 {
			return fmt.Errorf("chaos: loss needs prob in (0,1], got %g", f.Prob)
		}
	case Hold:
		if f.Stall <= 0 {
			return fmt.Errorf("chaos: hold needs stall=")
		}
	case Straggler:
		if f.Stall <= 0 {
			return fmt.Errorf("chaos: straggler needs stall=")
		}
	case Hang:
		if f.Dur <= 0 {
			return fmt.Errorf("chaos: hang needs a bounded +duration (use crash for permanence)")
		}
	case Incast:
		if f.Fanin != 0 && f.Fanin < 2 {
			return fmt.Errorf("chaos: incast needs fanin >= 2, got %d", f.Fanin)
		}
	case HashCollide:
		if f.Scale != 0 && (f.Scale <= 0 || f.Scale >= 1) {
			return fmt.Errorf("chaos: hashcollide needs scale in (0,1), got %g", f.Scale)
		}
	case PFCStorm:
		if f.Pod < -1 {
			return fmt.Errorf("chaos: bad pod %d", f.Pod)
		}
	}
	if f.Start < 0 || f.Dur < 0 {
		return fmt.Errorf("chaos: negative time in %s fault", f.Kind)
	}
	return nil
}

// RandomSpec draws a schedule of n faults from the seed over the given
// graph within the horizon: the soak test's generator. Faults target
// random edges and ranks; kinds that would be unrecoverable by
// construction on tiny clusters (crashing every worker) are naturally
// bounded because at most one crash is drawn.
func RandomSpec(seed int64, g *topology.Graph, n int, horizon time.Duration) Spec {
	rng := rand.New(rand.NewSource(seed))
	edges := g.NumEdges()
	var ranks []int
	for _, id := range g.GPUs() {
		ranks = append(ranks, g.Node(id).Rank)
	}
	spec := Spec{Seed: seed}
	crashed := false
	for i := 0; i < n; i++ {
		k := classicKinds[rng.Intn(len(classicKinds))]
		if k == Crash {
			if crashed || len(ranks) <= 2 {
				k = LinkDown // keep >= 2 survivors possible
			} else {
				crashed = true
			}
		}
		f := Fault{
			Kind:  k,
			Start: time.Duration(rng.Int63n(int64(horizon))),
			Edge:  -1,
			Rank:  -1,
			Pod:   -1,
		}
		window := horizon / 4
		switch k {
		case LinkDown:
			f.Edge = topology.EdgeID(rng.Intn(edges))
			if rng.Intn(2) == 0 { // half transient, half permanent
				f.Dur = time.Duration(1 + rng.Int63n(int64(window)))
			}
		case LinkFlap:
			f.Edge = topology.EdgeID(rng.Intn(edges))
			f.Dur = time.Duration(1 + rng.Int63n(int64(window)))
			f.Period = f.Dur/time.Duration(2+rng.Intn(6)) + time.Microsecond
		case Degrade:
			f.Edge = topology.EdgeID(rng.Intn(edges))
			f.Dur = time.Duration(1 + rng.Int63n(int64(window)))
			f.Scale = 0.02 + 0.5*rng.Float64()
		case Loss:
			f.Edge = topology.EdgeID(rng.Intn(edges))
			f.Dur = time.Duration(1 + rng.Int63n(int64(window)))
			f.Prob = 0.05 + 0.6*rng.Float64()
		case Hold:
			f.Edge = topology.EdgeID(rng.Intn(edges))
			f.Dur = time.Duration(1 + rng.Int63n(int64(window)))
			f.Stall = time.Duration(1 + rng.Int63n(int64(5*time.Millisecond)))
		case Crash:
			f.Rank = ranks[rng.Intn(len(ranks))]
		case Hang:
			f.Rank = ranks[rng.Intn(len(ranks))]
			f.Dur = time.Duration(1 + rng.Int63n(int64(window)))
		case Straggler:
			f.Rank = ranks[rng.Intn(len(ranks))]
			f.Dur = time.Duration(1 + rng.Int63n(int64(window)))
			f.Stall = time.Duration(1 + rng.Int63n(int64(2*time.Millisecond)))
		}
		spec.Faults = append(spec.Faults, f)
	}
	sort.SliceStable(spec.Faults, func(i, j int) bool {
		return spec.Faults[i].Start < spec.Faults[j].Start
	})
	return spec
}

// RandomLinkSpec draws a schedule of n link faults (down/flap/degrade/
// loss/hold — no worker faults) from the seed over the given graph within
// the horizon: the generator behind the sharded chaos soaks, where worker
// faults would need the kernel model the scale sweep does not simulate.
// Loss probabilities are kept low and loss windows short so a bounded
// retransmission budget can ride out the window.
func RandomLinkSpec(seed int64, g *topology.Graph, n int, horizon time.Duration) Spec {
	rng := rand.New(rand.NewSource(seed))
	edges := g.NumEdges()
	linkKinds := []Kind{LinkDown, LinkFlap, Degrade, Loss, Hold}
	spec := Spec{Seed: seed}
	for i := 0; i < n; i++ {
		k := linkKinds[rng.Intn(len(linkKinds))]
		f := Fault{
			Kind:  k,
			Start: time.Duration(rng.Int63n(int64(horizon))),
			Edge:  topology.EdgeID(rng.Intn(edges)),
			Rank:  -1,
			Pod:   -1,
		}
		window := horizon / 4
		f.Dur = time.Duration(1 + rng.Int63n(int64(window)))
		switch k {
		case LinkFlap:
			f.Period = f.Dur/time.Duration(2+rng.Intn(6)) + time.Microsecond
		case Degrade:
			f.Scale = 0.05 + 0.5*rng.Float64()
		case Loss:
			f.Prob = 0.02 + 0.2*rng.Float64()
		case Hold:
			f.Stall = time.Duration(1 + rng.Int63n(int64(200*time.Microsecond)))
		}
		spec.Faults = append(spec.Faults, f)
	}
	sort.SliceStable(spec.Faults, func(i, j int) bool {
		return spec.Faults[i].Start < spec.Faults[j].Start
	})
	return spec
}

// RandomCongestSpec draws a schedule of n congestion faults (incast /
// hashcollide / pfcstorm — performance-only, nothing is ever lost) from
// the seed within the horizon, targeting random network edges of the
// graph: the generator behind the congestion soaks. The target fabric must
// have its congestion plane enabled.
func RandomCongestSpec(seed int64, g *topology.Graph, n int, horizon time.Duration) Spec {
	rng := rand.New(rand.NewSource(seed))
	var netEdges []topology.EdgeID
	for _, e := range g.Edges() {
		if e.Type.Network() {
			netEdges = append(netEdges, e.ID)
		}
	}
	kinds := []Kind{Incast, HashCollide, PFCStorm}
	spec := Spec{Seed: seed}
	for i := 0; i < n; i++ {
		k := kinds[rng.Intn(len(kinds))]
		f := Fault{
			Kind:  k,
			Start: time.Duration(rng.Int63n(int64(horizon))),
			Edge:  netEdges[rng.Intn(len(netEdges))],
			Rank:  -1,
			Pod:   -1,
		}
		f.Dur = time.Duration(1 + rng.Int63n(int64(horizon/4)))
		switch k {
		case Incast:
			f.Fanin = 2 + rng.Intn(15)
		case HashCollide:
			f.Scale = 0.1 + 0.8*rng.Float64()
		}
		spec.Faults = append(spec.Faults, f)
	}
	sort.SliceStable(spec.Faults, func(i, j int) bool {
		return spec.Faults[i].Start < spec.Faults[j].Start
	})
	return spec
}

// Window is one fault's resolved activity interval on its target — the
// fault-end visibility heal soaks assert against without peeking at engine
// internals. End of 0 means open-ended (permanent): a crash, or a windowed
// kind armed without a duration.
type Window struct {
	Kind Kind
	// Edge is the targeted link (-1 for worker faults); Rank the targeted
	// worker (-1 for link faults). A crash is reported on the rank only,
	// even though it also kills the adjacent links.
	Edge topology.EdgeID
	Rank int
	// Start/End are relative to Engine.Arm, like Fault.Start.
	Start, End time.Duration
}

// Permanent reports whether the window never closes.
func (w Window) Permanent() bool { return w.End == 0 }

// Windows resolves the schedule into per-fault activity windows, in
// schedule order.
func (s Spec) Windows() []Window {
	out := make([]Window, 0, len(s.Faults))
	for _, f := range s.Faults {
		w := Window{Kind: f.Kind, Edge: f.Edge, Rank: f.Rank, Start: f.Start}
		if f.Kind != Crash && f.Dur > 0 {
			w.End = f.Start + f.Dur
		}
		out = append(out, w)
	}
	return out
}

// EdgeFaultEnd returns when the last fault window targeting the edge
// closes, and whether any of them is permanent (in which case the returned
// end covers only the bounded ones). An edge with no windows returns
// (0, false).
func (s Spec) EdgeFaultEnd(edge topology.EdgeID) (end time.Duration, permanent bool) {
	for _, w := range s.Windows() {
		if w.Edge != edge {
			continue
		}
		if w.Permanent() {
			permanent = true
			continue
		}
		if w.End > end {
			end = w.End
		}
	}
	return end, permanent
}
