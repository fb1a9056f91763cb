package ir

import (
	"fmt"
	"slices"

	"adapcc/internal/strategy"
)

// FromStrategy lowers a strategy (the synthesizer's or a baseline's
// routed-flow plan) into a verifiable IR program. Lowering is purely
// logical: it follows each sub-collective's flow graph rank-to-rank and
// ignores the routed intermediate hops, which affect timing but not which
// rank ends up holding which data.
//
// Reduce and Broadcast strategies must share one root across all
// sub-collectives; multi-root assemblies lower through
// ReduceScatterFromStrategy / AllGatherFromStrategy instead.
func FromStrategy(st *strategy.Strategy) (*Program, error) {
	if st == nil || len(st.SubCollectives) == 0 {
		return nil, fmt.Errorf("%w: empty strategy", ErrProgram)
	}
	ranks := st.Participants()
	p := &Program{
		Name:  fmt.Sprintf("%s/%dB", st.Primitive, st.TotalBytes),
		Ranks: ranks,
		Root:  -1,
	}
	switch st.Primitive {
	case strategy.Reduce, strategy.Broadcast:
		root := st.SubCollectives[0].Root
		for i := range st.SubCollectives {
			if st.SubCollectives[i].Root != root {
				return nil, fmt.Errorf("%w: %s strategy mixes roots %d and %d (use the multi-root lowerings)",
					ErrProgram, st.Primitive, root, st.SubCollectives[i].Root)
			}
		}
		p.Root = root
		if st.Primitive == strategy.Reduce {
			p.Collective = Reduce
		} else {
			p.Collective = Broadcast
		}
	case strategy.AllReduce:
		p.Collective = AllReduce
	case strategy.AlltoAll:
		p.Collective = AlltoAll
	default:
		return nil, fmt.Errorf("%w: unknown primitive %d", ErrProgram, int(st.Primitive))
	}

	for i := range st.SubCollectives {
		sc := &st.SubCollectives[i]
		var err error
		switch p.Collective {
		case Reduce:
			err = lowerReduceSub(p, sc, func(int) Chunk { return UnshardedChunk() }, false)
		case AllReduce:
			err = lowerReduceSub(p, sc, func(int) Chunk { return UnshardedChunk() }, true)
		case Broadcast:
			err = lowerBroadcastSub(p, sc, func(int) Chunk { return UnshardedChunk() })
		case AlltoAll:
			err = lowerAlltoAllSub(p, sc)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: sub-collective %d: %v", ErrProgram, sc.ID, err)
		}
	}
	return p, nil
}

// ReduceScatterFromStrategy lowers a multi-root Reduce assembly — one or
// more in-trees rooted at every participant — into a first-class
// ReduceScatter program: the chunks of a sub-collective rooted at
// Ranks[i] form shard i.
func ReduceScatterFromStrategy(st *strategy.Strategy) (*Program, error) {
	return fromMultiRoot(st, strategy.Reduce, ReduceScatter)
}

// AllGatherFromStrategy lowers a multi-root Broadcast assembly — one or
// more out-trees rooted at every participant — into a first-class
// AllGather program: the chunks of a sub-collective rooted at Ranks[i]
// form shard i.
func AllGatherFromStrategy(st *strategy.Strategy) (*Program, error) {
	return fromMultiRoot(st, strategy.Broadcast, AllGather)
}

func fromMultiRoot(st *strategy.Strategy, want strategy.Primitive, coll Collective) (*Program, error) {
	if st == nil || len(st.SubCollectives) == 0 {
		return nil, fmt.Errorf("%w: empty strategy", ErrProgram)
	}
	if st.Primitive != want {
		return nil, fmt.Errorf("%w: %s lowering needs a %s strategy, got %s",
			ErrProgram, coll, want, st.Primitive)
	}
	ranks := st.Participants()
	p := &Program{
		Name:       fmt.Sprintf("%s/%dB", coll, st.TotalBytes),
		Collective: coll,
		Ranks:      ranks,
		Root:       -1,
	}
	rooted := make(map[int]bool)
	for i := range st.SubCollectives {
		sc := &st.SubCollectives[i]
		shard := p.rankIndex(sc.Root)
		if shard < 0 {
			return nil, fmt.Errorf("%w: sub-collective %d root %d is not a participant", ErrProgram, sc.ID, sc.Root)
		}
		rooted[shard] = true
		mk := func(int) Chunk { return ShardChunk(shard) }
		var err error
		if want == strategy.Reduce {
			err = lowerReduceSub(p, sc, mk, false)
		} else {
			err = lowerBroadcastSub(p, sc, mk)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: sub-collective %d: %v", ErrProgram, sc.ID, err)
		}
	}
	for i := range ranks {
		if !rooted[i] {
			return nil, fmt.Errorf("%w: %s assembly has no sub-collective rooted at rank %d",
				ErrProgram, coll, ranks[i])
		}
	}
	return p, nil
}

// lowerReduceSub emits the up-phase of one in-tree: every non-root rank
// sends its partial to its parent, which reduces it in. A leaf sends at
// step 0; an interior rank sends one step after its last child's send has
// committed. When down is set (AllReduce), the reduced result then
// pipelines back down the reversed tree via Send/Recv.
func lowerReduceSub(p *Program, sc *strategy.SubCollective, mk func(chunkInSub int) Chunk, down bool) error {
	parent, err := treeEdges(sc, false)
	if err != nil {
		return err
	}
	root := sc.Root
	sendStep, err := reduceSendSteps(parent, root)
	if err != nil {
		return err
	}
	base := len(p.Chunks)
	nchunks := sc.Chunks()
	for ci := 0; ci < nchunks; ci++ {
		p.Chunks = append(p.Chunks, mk(ci))
	}
	members := treeMembers(parent)
	phases := 1
	if down {
		phases = 2
	}
	p.Ops = slices.Grow(p.Ops, phases*2*len(members)*nchunks)

	for ci := 0; ci < nchunks; ci++ {
		c := base + ci
		for _, r := range members {
			par, s := parent[r], sendStep[r]
			p.Ops = append(p.Ops,
				Op{Kind: OpSend, Rank: r, Peer: par, Chunk: c, Step: s},
				Op{Kind: OpReduce, Rank: par, Peer: r, Chunk: c, Step: s},
			)
		}
	}

	if down {
		// The root's last reduce commits at the end of step F-1.
		finish := 0
		for r, par := range parent {
			if par == root && sendStep[r]+1 > finish {
				finish = sendStep[r] + 1
			}
		}
		depth, err := treeDepths(parent, root)
		if err != nil {
			return err
		}
		for ci := 0; ci < nchunks; ci++ {
			c := base + ci
			for _, r := range members {
				par := parent[r]
				s := finish + depth[par]
				p.Ops = append(p.Ops,
					Op{Kind: OpSend, Rank: par, Peer: r, Chunk: c, Step: s},
					Op{Kind: OpRecv, Rank: r, Peer: par, Chunk: c, Step: s},
				)
			}
		}
	}
	return nil
}

// lowerBroadcastSub emits one out-tree: the root copies its own data at
// step 0, and each rank forwards to its children one step after its own
// receive has committed.
func lowerBroadcastSub(p *Program, sc *strategy.SubCollective, mk func(chunkInSub int) Chunk) error {
	source, err := treeEdges(sc, true)
	if err != nil {
		return err
	}
	root := sc.Root
	depth, err := treeDepths(source, root)
	if err != nil {
		return err
	}
	base := len(p.Chunks)
	nchunks := sc.Chunks()
	for ci := 0; ci < nchunks; ci++ {
		p.Chunks = append(p.Chunks, mk(ci))
	}
	members := treeMembers(source)
	p.Ops = slices.Grow(p.Ops, (1+2*len(members))*nchunks)
	for ci := 0; ci < nchunks; ci++ {
		c := base + ci
		p.Ops = append(p.Ops, Op{Kind: OpCopy, Rank: root, Peer: -1, Chunk: c, Step: 0})
		for _, r := range members {
			src := source[r]
			s := depth[src]
			p.Ops = append(p.Ops,
				Op{Kind: OpSend, Rank: src, Peer: r, Chunk: c, Step: s},
				Op{Kind: OpRecv, Rank: r, Peer: src, Chunk: c, Step: s},
			)
		}
	}
	return nil
}

// lowerAlltoAllSub emits one chunk per ordered rank pair: off-diagonal
// blocks travel in a single exchange step, diagonal blocks stay local as
// a Copy.
func lowerAlltoAllSub(p *Program, sc *strategy.SubCollective) error {
	if len(sc.Flows) == 0 {
		return fmt.Errorf("no flows")
	}
	seen := make(map[[2]int]bool)
	for _, f := range sc.Flows {
		if f.SrcRank == f.DstRank {
			return fmt.Errorf("flow %d is a self-send", f.ID)
		}
		key := [2]int{f.SrcRank, f.DstRank}
		if seen[key] {
			return fmt.Errorf("duplicate flow for pair %v", key)
		}
		seen[key] = true
		c := len(p.Chunks)
		p.Chunks = append(p.Chunks, PairChunk(f.SrcRank, f.DstRank))
		p.Ops = append(p.Ops,
			Op{Kind: OpSend, Rank: f.SrcRank, Peer: f.DstRank, Chunk: c, Step: 0},
			Op{Kind: OpRecv, Rank: f.DstRank, Peer: f.SrcRank, Chunk: c, Step: 0},
		)
	}
	for _, r := range p.Ranks {
		c := len(p.Chunks)
		p.Chunks = append(p.Chunks, PairChunk(r, r))
		p.Ops = append(p.Ops, Op{Kind: OpCopy, Rank: r, Peer: -1, Chunk: c, Step: 0})
	}
	return nil
}

// treeEdges extracts the rank-level tree from a sub-collective's flows.
// For an in-tree (reversed=false) it maps child → parent (each non-root
// rank originates exactly one flow); for an out-tree (reversed=true) it
// maps child → source (each non-root rank terminates exactly one flow).
func treeEdges(sc *strategy.SubCollective, reversed bool) (map[int]int, error) {
	edges := make(map[int]int, len(sc.Flows))
	for _, f := range sc.Flows {
		child, other := f.SrcRank, f.DstRank
		if reversed {
			child, other = f.DstRank, f.SrcRank
		}
		if child == sc.Root {
			return nil, fmt.Errorf("flow %d puts root %d on the leaf side", f.ID, sc.Root)
		}
		if _, dup := edges[child]; dup {
			return nil, fmt.Errorf("rank %d appears in more than one tree edge", child)
		}
		edges[child] = other
	}
	return edges, nil
}

// treeMembers returns the non-root ranks of a tree (the keys of its
// rank → parent map) in ascending order, so lowering emits the same op
// order on every run.
func treeMembers(tree map[int]int) []int {
	members := make([]int, 0, len(tree))
	for r := range tree {
		members = append(members, r)
	}
	slices.Sort(members)
	return members
}

// reduceSendSteps assigns each non-root rank the step at which it sends
// up-tree: 0 for leaves, 1 + max(children) otherwise.
func reduceSendSteps(parent map[int]int, root int) (map[int]int, error) {
	children := make(map[int][]int)
	for c, p := range parent {
		children[p] = append(children[p], c)
	}
	steps := make(map[int]int, len(parent))
	var visit func(r int, trail map[int]bool) (int, error)
	visit = func(r int, trail map[int]bool) (int, error) {
		if s, ok := steps[r]; ok {
			return s, nil
		}
		if trail[r] {
			return 0, fmt.Errorf("aggregation cycle through rank %d", r)
		}
		trail[r] = true
		s := 0
		for _, c := range children[r] {
			cs, err := visit(c, trail)
			if err != nil {
				return 0, err
			}
			if cs+1 > s {
				s = cs + 1
			}
		}
		delete(trail, r)
		steps[r] = s
		return s, nil
	}
	for r := range parent {
		if _, err := visit(r, map[int]bool{}); err != nil {
			return nil, err
		}
	}
	return steps, nil
}

// treeDepths returns each rank's hop distance from the root following the
// child → parent/source map; the root has depth 0.
func treeDepths(up map[int]int, root int) (map[int]int, error) {
	depths := map[int]int{root: 0}
	var visit func(r int, trail map[int]bool) (int, error)
	visit = func(r int, trail map[int]bool) (int, error) {
		if d, ok := depths[r]; ok {
			return d, nil
		}
		if trail[r] {
			return 0, fmt.Errorf("tree cycle through rank %d", r)
		}
		trail[r] = true
		p, ok := up[r]
		if !ok {
			return 0, fmt.Errorf("rank %d is disconnected from root %d", r, root)
		}
		pd, err := visit(p, trail)
		if err != nil {
			return 0, err
		}
		delete(trail, r)
		depths[r] = pd + 1
		return pd + 1, nil
	}
	for r := range up {
		if _, err := visit(r, map[int]bool{}); err != nil {
			return nil, err
		}
	}
	return depths, nil
}
