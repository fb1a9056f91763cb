// Gray-failure adaptation: the congestion half of the fault story. The
// recovery ladder of resilient.go handles links that die; this file handles
// links that merely *degrade* — ECMP hash collisions, PFC pause storms and
// incast queues deliver every byte, just slowly, so no deadline ever
// declares them dead. A grayfail.Monitor samples the watched links against
// their profiled baselines and the controller reacts one rung above the
// exclusion ladder ("reweight"): degraded links stay on the synthesis
// topology with their bandwidths down-weighted, so the next synthesis
// steers traffic around them while they remain a route of last resort.
// Restored links get their full weight back; links the probe machinery
// gives up on are condemned into the hard-exclusion path. See DESIGN.md
// §15.
package core

import (
	"sort"
	"strconv"

	"adapcc/internal/grayfail"
	"adapcc/internal/synth"
	"adapcc/internal/topology"
)

// DefaultDegradedWeight is the bandwidth multiplier applied to a degraded
// link when GrayfailOptions.Weight is unset: pessimistic enough that any
// clean alternative wins the cost comparison, large enough that a degraded
// bottleneck link still beats an excluded one (infeasibility).
const DefaultDegradedWeight = 0.25

// GrayfailOptions opts the controller into in-fabric congestion awareness.
// The embedded grayfail.Options set the detector knobs (zero values take
// the grayfail package defaults).
type GrayfailOptions struct {
	grayfail.Options
	// Weight is the bandwidth multiplier for degraded links, in (0, 1)
	// (default DefaultDegradedWeight).
	Weight float64
	// OnVerdict observes every verdict after the controller has applied it
	// (link down-weighted, restored or condemned; caches refreshed).
	OnVerdict func(grayfail.Event)
}

// EnableGrayfail installs the in-fabric congestion detector (idempotent:
// the first call's knobs win, later calls return the existing monitor).
// Every network edge is watched against its current nominal service rate
// — enable after Setup, so profiled baselines are in place, and before any
// congestion starts. Verdicts drive the adaptation:
//
//   - degraded  → DegradeLink: the link's bandwidths are down-weighted in
//     the cost view and the next synthesis re-solves around it (counted as
//     a "reweight" recovery, the rung above the exclusion ladder);
//   - restored  → RestoreLink: full weight back, cached strategies for the
//     pre-degradation fingerprint become addressable again;
//   - condemned → ExcludeLink: the link never recovered, hand it to the
//     hard-fault path.
//
// The monitor ticks until Stop is called on it; stop it (or keep a bounded
// horizon) before draining the engine.
func (a *AdapCC) EnableGrayfail(opts GrayfailOptions) *grayfail.Monitor {
	if a.grayMon != nil {
		return a.grayMon
	}
	a.grayOnVerdict = opts.OnVerdict
	a.grayWeight = opts.Weight
	if a.grayWeight <= 0 || a.grayWeight >= 1 {
		a.grayWeight = DefaultDegradedWeight
	}
	m := grayfail.New(a.env.Engine, a.env.Fabric, opts.Options, a.onGrayVerdict)
	g := a.env.Graph
	for _, e := range g.Edges() {
		if e.Type.Network() {
			m.Watch(e.ID)
		}
	}
	a.grayMon = m
	m.Start()
	return m
}

// Grayfail returns the installed congestion monitor (nil before
// EnableGrayfail).
func (a *AdapCC) Grayfail() *grayfail.Monitor { return a.grayMon }

// onGrayVerdict is the monitor's event hook: apply the verdict to the cost
// model, record it, then let the user observe.
func (a *AdapCC) onGrayVerdict(ev grayfail.Event) {
	locality := LocalityBoundary
	if a.env.Graph.Node(ev.From).Server == a.env.Graph.Node(ev.To).Server {
		locality = LocalityDomainLocal
	}
	switch ev.Verdict {
	case grayfail.VerdictDegraded:
		a.DegradeLink(ev.From, ev.To, a.grayWeight)
		a.recordRecovery("reweight", locality)
	case grayfail.VerdictRestored:
		a.RestoreLink(ev.From, ev.To)
	case grayfail.VerdictCondemned:
		a.RestoreLink(ev.From, ev.To)
		a.ExcludeLink(ev.From, ev.To)
	}
	a.recordGrayVerdict(ev.Verdict.String())
	if a.grayOnVerdict != nil {
		a.grayOnVerdict(ev)
	}
}

// DegradeLink down-weights a node pair (both directions) in the synthesis
// cost view: the link stays routable but its bandwidths are multiplied by
// weight, so re-synthesis prefers clean alternatives. Weights outside
// (0, 1) take DefaultDegradedWeight. The strategy cache survives — entries
// are keyed under the exclusion fingerprint, which now carries the degraded
// set, so a congestion flap that restores a previous state hits the cache
// instead of re-solving.
func (a *AdapCC) DegradeLink(from, to topology.NodeID, weight float64) {
	if weight <= 0 || weight >= 1 {
		weight = DefaultDegradedWeight
	}
	a.noteDelta(synth.DeltaReweight, from, to)
	a.softPairs[[2]topology.NodeID{from, to}] = weight
	a.softPairs[[2]topology.NodeID{to, from}] = weight
	a.exclusionsChanged()
}

// RestoreLink returns a previously degraded node pair (both directions) to
// full weight. It reports whether the pair was actually degraded; caches
// refresh only on a real change.
func (a *AdapCC) RestoreLink(from, to topology.NodeID) bool {
	k1 := [2]topology.NodeID{from, to}
	k2 := [2]topology.NodeID{to, from}
	if _, ok := a.softPairs[k1]; !ok {
		if _, ok := a.softPairs[k2]; !ok {
			return false
		}
	}
	a.noteDelta(synth.DeltaReweight, from, to)
	delete(a.softPairs, k1)
	delete(a.softPairs, k2)
	a.exclusionsChanged()
	return true
}

// DegradedLinks returns the currently down-weighted node pairs, each once
// as (lo, hi), sorted — the gray sibling of ExcludedLinks.
func (a *AdapCC) DegradedLinks() [][2]topology.NodeID {
	seen := make(map[[2]topology.NodeID]bool, len(a.softPairs))
	for p := range a.softPairs {
		lo, hi := p[0], p[1]
		if hi < lo {
			lo, hi = hi, lo
		}
		seen[[2]topology.NodeID{lo, hi}] = true
	}
	out := make([][2]topology.NodeID, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// recordGrayVerdict counts one applied gray-failure verdict (cold path:
// the counter resolves on demand). The name and labels match the scale
// path's export, so dashboards aggregate across both.
func (a *AdapCC) recordGrayVerdict(verdict string) {
	if a.reg == nil {
		return
	}
	a.reg.Counter("adapcc_grayfail_verdicts_total",
		"gray-failure verdicts issued by the congestion detector",
		"world", strconv.Itoa(len(a.env.AllRanks())), "verdict", verdict).Inc(a.env.Engine.Now())
}
