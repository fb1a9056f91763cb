// Elastic healing: the re-admission half of the fault story. RunResilient
// (resilient.go) permanently excludes faulted links and ranks; with
// ResilientOptions.Heal set, every exclusion is also handed to a
// health.Monitor that probes the hardware in the background and, once it
// passes probation, re-admits it here — folding freshly re-profiled α–β
// values into the cost model and dropping the strategy caches so the next
// synthesis reclaims the capacity. See DESIGN.md §9.
package core

import (
	"sort"
	"strconv"

	"adapcc/internal/health"
	"adapcc/internal/profile"
	"adapcc/internal/synth"
	"adapcc/internal/topology"
)

// HealOptions opts a resilient controller into elastic healing. The
// embedded health.Options set the hysteresis knobs (zero values take the
// health package defaults).
type HealOptions struct {
	health.Options
	// OnHeal observes each promotion after the controller has applied it
	// (exclusion lifted, measurements absorbed).
	OnHeal func(health.Event)
	// OnCondemn observes targets written off permanently after
	// GiveUpAfter relapses.
	OnCondemn func(health.Event)
}

// EnableHealing installs the background health monitor (idempotent: the
// first call's knobs win, later calls return the existing monitor). It
// also runs implicitly from RunResilient when WithHeal is set. Exclusions
// registered by the fault path are watched, probed over the live fabric
// and devices, and — after K consecutive successful probes — re-admitted:
// ReadmitLink/ReadmitRank, measurements absorbed, then OnHeal observes.
func (a *AdapCC) EnableHealing(opts HealOptions) *health.Monitor {
	if a.healer != nil {
		return a.healer
	}
	a.healOnHeal, a.healOnCondemn = opts.OnHeal, opts.OnCondemn
	m := health.New(a.env.Engine, a.env.Fabric, a.env.GPUs, opts.Options, health.Hooks{
		OnHeal: a.onHealed,
		OnCondemn: func(ev health.Event) {
			a.recordHealEvent("condemned", ev.Kind.String())
			if a.healOnCondemn != nil {
				a.healOnCondemn(ev)
			}
		},
	})
	m.SetMetrics(a.reg)
	m.SetHealLabels(strconv.Itoa(len(a.env.AllRanks())), func(ev health.Event) string {
		if ev.Kind == health.KindLink && ev.From >= 0 && ev.To >= 0 &&
			a.env.Graph.Node(ev.From).Server != a.env.Graph.Node(ev.To).Server {
			return LocalityBoundary
		}
		return LocalityDomainLocal
	})
	a.healer = m
	return m
}

// Healer returns the installed health monitor (nil before EnableHealing).
func (a *AdapCC) Healer() *health.Monitor { return a.healer }

// onHealed is the monitor's promotion hook: lift the exclusion, absorb the
// re-profiled measurements, then let the user observe.
func (a *AdapCC) onHealed(ev health.Event) {
	switch ev.Kind {
	case health.KindLink:
		a.ReadmitLink(ev.From, ev.To)
	case health.KindRank:
		a.ReadmitRank(ev.Rank)
	}
	a.AbsorbMeasurements(ev.Measurements)
	a.recordHealEvent("healed", ev.Kind.String())
	if a.healOnHeal != nil {
		a.healOnHeal(ev)
	}
}

// ReadmitLink returns a previously excluded node pair (both directions) to
// the synthesis topology — the per-link counterpart of the all-or-nothing
// ClearExclusions. It reports whether the pair was actually excluded;
// caches drop only on a real change.
func (a *AdapCC) ReadmitLink(from, to topology.NodeID) bool {
	k1 := [2]topology.NodeID{from, to}
	k2 := [2]topology.NodeID{to, from}
	if !a.deadPairs[k1] && !a.deadPairs[k2] {
		return false
	}
	a.noteDelta(synth.DeltaReadmit, from, to)
	delete(a.deadPairs, k1)
	delete(a.deadPairs, k2)
	a.exclusionsChanged()
	return true
}

// ReadmitRank returns a previously excluded worker to the synthesis
// topology and to default participant sets. It reports whether the rank was
// actually excluded.
func (a *AdapCC) ReadmitRank(rank int) bool {
	if !a.deadRanks[rank] {
		return false
	}
	a.clearDelta()
	delete(a.deadRanks, rank)
	a.exclusionsChanged()
	return true
}

// ExcludedLinks returns the written-off node pairs, each once as (lo, hi),
// sorted — the link sibling of ExcludedRanks.
func (a *AdapCC) ExcludedLinks() [][2]topology.NodeID {
	seen := make(map[[2]topology.NodeID]bool, len(a.deadPairs))
	for p := range a.deadPairs {
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

// AbsorbMeasurements folds fresh per-edge measurements (the healed-edge
// re-profiling pass) into the cost model without a full Reconstruct: the
// report gains the edges and costs rebuild from it. Unmeasured edges keep
// their previous (or nominal) values. The strategy cache survives — entries
// are re-keyed under the new cost fingerprint (see prefix), so strategies
// solved under other measurement sets stay addressable, and a healing flap
// that restores byte-identical measurements restores the previous cache
// prefix: its strategies come back as pointer-identity hits instead of
// re-solves. Only Reconstruct (a full re-profiling) wipes outright.
func (a *AdapCC) AbsorbMeasurements(ms []profile.Measurement) {
	if len(ms) == 0 {
		return
	}
	if a.report == nil {
		a.report = &profile.Report{ByEdge: make(map[topology.EdgeID]profile.Measurement, len(ms))}
	}
	for _, m := range ms {
		a.report.ByEdge[m.Edge] = m
	}
	a.costs = synth.NewCosts(a.env.Graph, a.report)
	if fp := a.costs.Fingerprint(); fp == a.baseCostFP {
		a.costPrefix = ""
	} else {
		a.costPrefix = "c!" + strconv.FormatUint(fp, 16) + "|"
	}
	a.exclusionsChanged()
}

// recordHealEvent counts one heal-path event (cold path: the counter
// resolves on demand).
func (a *AdapCC) recordHealEvent(outcome, kind string) {
	if a.reg != nil {
		a.reg.Counter("adapcc_core_readmissions_total",
			"heal-path outcomes applied by the controller, by outcome and kind",
			"outcome", outcome, "kind", kind).Inc(a.env.Engine.Now())
	}
}
