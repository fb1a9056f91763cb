package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"adapcc/internal/backend"
	"adapcc/internal/cluster"
	"adapcc/internal/topology"
)

// pruneOnly is the minimal controller pruneUnreachable reads: a graph and
// the exclusion sets. No engine, fabric or profile is built, so the tests
// below can afford hundreds of ranks and fat-tree graphs.
func pruneOnly(g *topology.Graph) *AdapCC {
	return &AdapCC{
		env:       &backend.Env{Graph: g},
		deadPairs: make(map[[2]topology.NodeID]bool),
		deadRanks: make(map[int]bool),
	}
}

func clusterGraph(t testing.TB, c *topology.Cluster, err error) *topology.Graph {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.LogicalGraph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pairwisePrune is the original definition of pruning, kept here as the
// oracle: for every base rank in ascending order, the group of ranks it
// reaches and is reached by (one BFS each way per pair); the first
// strictly largest group wins.
func pairwisePrune(a *AdapCC, ranks []int) (alive, dropped []int) {
	g := a.activeGraph()
	node := make(map[int]topology.NodeID, len(ranks))
	var usable []int
	for _, r := range ranks {
		id, ok := g.GPUByRank(r)
		if a.deadRanks[r] || !ok {
			dropped = append(dropped, r)
			continue
		}
		node[r] = id
		usable = append(usable, r)
	}
	sort.Ints(usable)
	mutual := func(x, y int) bool {
		return g.ShortestPath(node[x], node[y]) != nil && g.ShortestPath(node[y], node[x]) != nil
	}
	var best []int
	for _, base := range usable {
		group := []int{base}
		for _, r := range usable {
			if r != base && mutual(base, r) {
				group = append(group, r)
			}
		}
		if len(group) > len(best) {
			best = group
		}
	}
	sort.Ints(best)
	in := make(map[int]bool, len(best))
	for _, r := range best {
		in[r] = true
	}
	for _, r := range usable {
		if !in[r] {
			dropped = append(dropped, r)
		}
	}
	sort.Ints(dropped)
	return best, dropped
}

// TestPruneMatchesPairwiseOracle drives pruneUnreachable and the pairwise
// oracle through random fault sets — directed edge removals (one way only,
// which ExcludeLink never produces), dead ranks and random participant
// subsets — and demands identical survivors and dropped ranks.
func TestPruneMatchesPairwiseOracle(t *testing.T) {
	het, herr := cluster.Heterogeneous(topology.TransportRDMA, 2)
	hom, merr := cluster.Homogeneous(topology.TransportRDMA, 4, 4)
	ft, err := topology.FatTreeSpec{Pods: 2, Servers: 2, GPUs: 2, Spines: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *topology.Graph
	}{
		{"heterogeneous-2", clusterGraph(t, het, herr)},
		{"homogeneous-4x4", clusterGraph(t, hom, merr)},
		{"fattree-2x2x2", ft.Graph},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			nranks := len(g.GPUs())
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			multi := 0
			for trial := 0; trial < 300; trial++ {
				a := pruneOnly(g)
				cuts := rng.Intn(g.NumEdges() / 2)
				for i := 0; i < cuts; i++ {
					e := g.Edge(topology.EdgeID(rng.Intn(g.NumEdges())))
					a.deadPairs[[2]topology.NodeID{e.From, e.To}] = true
				}
				for i := rng.Intn(3); i > 0; i-- {
					a.deadRanks[rng.Intn(nranks)] = true
				}
				a.exclusionsChanged()
				var ranks []int
				for _, r := range rng.Perm(nranks) {
					if rng.Intn(4) > 0 {
						ranks = append(ranks, r)
					}
				}
				wantAlive, wantDropped := pairwisePrune(a, ranks)
				alive, dropped := a.pruneUnreachable(ranks)
				if !reflect.DeepEqual(alive, wantAlive) || !reflect.DeepEqual(dropped, wantDropped) {
					t.Fatalf("trial %d (ranks %v, %d dead pairs, dead ranks %v):\n got alive %v dropped %v\nwant alive %v dropped %v",
						trial, ranks, len(a.deadPairs), a.ExcludedRanks(), alive, dropped, wantAlive, wantDropped)
				}
				if len(wantDropped) > len(a.deadRanks) {
					multi++
				}
			}
			if multi == 0 {
				t.Errorf("no trial split the survivors into several groups; the oracle comparison is vacuous")
			}
		})
	}
}

// TestPruneTieBreaksToLowestRank cuts every link between the two servers
// of a homogeneous cluster, leaving two equally large groups, and pins the
// winner to the group holding the lowest rank whatever order the
// participants arrive in.
func TestPruneTieBreaksToLowestRank(t *testing.T) {
	c, err := cluster.Homogeneous(topology.TransportRDMA, 2, 4)
	g := clusterGraph(t, c, err)
	for _, tc := range []struct{ dead, want []int }{
		{nil, []int{0, 1, 2, 3}},
		{[]int{4}, []int{0, 1, 2, 3}},
		// The larger group wins even though it holds the higher ranks.
		{[]int{0}, []int{4, 5, 6, 7}},
	} {
		a := pruneOnly(g)
		for _, e := range g.Edges() {
			if g.Node(e.From).Server != g.Node(e.To).Server {
				a.deadPairs[[2]topology.NodeID{e.From, e.To}] = true
			}
		}
		for _, r := range tc.dead {
			a.deadRanks[r] = true
		}
		a.exclusionsChanged()
		alive, _ := a.pruneUnreachable([]int{7, 6, 5, 4, 3, 2, 1, 0})
		if !reflect.DeepEqual(alive, tc.want) {
			t.Errorf("dead %v: alive = %v, want %v", tc.dead, alive, tc.want)
		}
	}

	// Two equal groups again, but split one way only: server 1 can still
	// send to server 0, so each server is its own strongly connected group.
	a := pruneOnly(g)
	for _, e := range g.Edges() {
		if g.Node(e.From).Server == 0 && g.Node(e.To).Server != 0 {
			a.deadPairs[[2]topology.NodeID{e.From, e.To}] = true
		}
	}
	a.exclusionsChanged()
	alive, dropped := a.pruneUnreachable([]int{4, 5, 6, 7, 0, 1, 2, 3})
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(alive, want) || !reflect.DeepEqual(dropped, []int{4, 5, 6, 7}) {
		t.Errorf("one-way split: alive %v dropped %v, want alive %v", alive, dropped, want)
	}
}

// TestPruneAllocsScaleLinearly is the scaling guard: one prune of a
// faulted 256-rank cluster may allocate at most twice what a 64-rank one
// does. The pairwise definition allocated about 19× more.
func TestPruneAllocsScaleLinearly(t *testing.T) {
	allocs := func(servers int) float64 {
		c, err := cluster.Homogeneous(topology.TransportRDMA, servers, 8)
		g := clusterGraph(t, c, err)
		a := pruneOnly(g)
		// Rank 0 loses every outgoing link (one way), so it forms its own
		// component ahead of everyone else's; the last rank is dead.
		g0, _ := g.GPUByRank(0)
		for _, eid := range g.Out(g0) {
			e := g.Edge(eid)
			a.deadPairs[[2]topology.NodeID{e.From, e.To}] = true
		}
		last := servers*8 - 1
		a.deadRanks[last] = true
		a.exclusionsChanged()
		ranks := make([]int, servers*8)
		for i := range ranks {
			ranks[i] = i
		}
		alive, dropped := a.pruneUnreachable(ranks)
		if len(alive) != last-1 || !reflect.DeepEqual(dropped, []int{0, last}) {
			t.Fatalf("%d ranks: alive %d, dropped %v; want %d alive, dropped [0 %d]",
				len(ranks), len(alive), dropped, last-1, last)
		}
		return testing.AllocsPerRun(20, func() { a.pruneUnreachable(ranks) })
	}
	small, large := allocs(8), allocs(32)
	t.Logf("allocs per prune: 64 ranks %.0f, 256 ranks %.0f", small, large)
	if large > 2*small {
		t.Errorf("allocs per prune grew %.1f× from 64 to 256 ranks (%.0f → %.0f), want ≤ 2×", large/small, small, large)
	}
}
