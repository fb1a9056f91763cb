package ir

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Sentinel error classes. Verify wraps each with program context, so
// callers test them with errors.Is.
var (
	// ErrProgram marks a structurally malformed program (bad ranks, op
	// fields out of range, chunk table not covering the collective).
	ErrProgram = errors.New("ir: malformed program")
	// ErrUnmatched marks a Send with no matching receiver, or a
	// Recv/Reduce with no matching Send, at the same (step, chunk, src, dst).
	ErrUnmatched = errors.New("ir: unmatched transfer")
	// ErrUseBeforeRecv marks a rank sending or copying a chunk it does not
	// hold at that step.
	ErrUseBeforeRecv = errors.New("ir: use before receive")
	// ErrDoubleReduce marks a reduction that would fold some rank's
	// contribution into an accumulator that already contains it.
	ErrDoubleReduce = errors.New("ir: double reduce")
	// ErrWriteConflict marks two receives landing on the same (rank, chunk)
	// in the same step with no defined order.
	ErrWriteConflict = errors.New("ir: conflicting writes")
	// ErrPostcondition marks a schedule that runs cleanly but leaves some
	// rank without its required chunks or with the wrong contribution set.
	ErrPostcondition = errors.New("ir: postcondition failed")
)

// Verify proves the program implements its collective: starting from the
// precondition state, executing the ops in step order leaves every rank
// holding exactly the chunks — with exactly the contribution sets — the
// postcondition demands. It rejects structurally malformed programs,
// unmatched transfers, use-before-receive, double reduction, and
// same-step write conflicts.
//
// Semantics: all ops of a step read the state committed by previous
// steps; all receives of a step commit together at its end. Data can
// therefore never be forwarded in the step it arrives.
//
// The first error is deterministic: unmatched transfers are reported at
// the lowest (step, chunk, src, dst), execution errors at the first
// failing op of the first failing step in program order, and
// postcondition failures at the lowest (rank, chunk).
func Verify(p *Program) error {
	if err := p.validateStructure(); err != nil {
		return err
	}
	order, bounds := p.stepOrder()
	if err := p.matchTransfers(order, bounds); err != nil {
		return err
	}

	// state and pending are dense (rank, chunk) tables (see slot); a nil
	// entry is an absent chunk. Contribution sets in state are never
	// mutated in place — writes replace them — so entries may share one.
	state := p.preconditions()
	type pendingWrite struct {
		val  contrib
		recv bool
	}
	pending := make([]pendingWrite, len(state))
	var written []int
	for g := 0; g+1 < len(bounds); g++ {
		ops := order[bounds[g]:bounds[g+1]]

		// Phase A: reads. Senders and copiers must hold their chunk in the
		// state committed by earlier steps.
		for _, i := range ops {
			op := p.Ops[i]
			if (op.Kind == OpSend || op.Kind == OpCopy) && state[p.slot(op.Rank, op.Chunk)] == nil {
				return fmt.Errorf("%w: %s: %v: r%d does not hold chunk %d yet",
					ErrUseBeforeRecv, p.Name, op, op.Rank, op.Chunk)
			}
		}

		// Phase B: writes. Computed against the start-of-step state and
		// committed together afterwards. At most one Recv may land on a
		// slot per step; Reduces may stack on a slot if their contribution
		// sets stay disjoint; a Recv and a Reduce on the same slot in the
		// same step have no defined order. The in-flight data of a receive
		// is its sender's start-of-step copy, which phase A proved held.
		for _, i := range ops {
			op := p.Ops[i]
			if op.Kind != OpRecv && op.Kind != OpReduce {
				continue
			}
			src := state[p.slot(op.Peer, op.Chunk)]
			if src == nil {
				// matchTransfers and phase A make this unreachable; guard anyway.
				return fmt.Errorf("%w: %s: %v: no in-flight data", ErrUnmatched, p.Name, op)
			}
			sl := p.slot(op.Rank, op.Chunk)
			pw := &pending[sl]
			switch op.Kind {
			case OpRecv:
				if pw.val != nil {
					return fmt.Errorf("%w: %s: %v: chunk %d at r%d already written this step",
						ErrWriteConflict, p.Name, op, op.Chunk, op.Rank)
				}
				*pw = pendingWrite{val: src, recv: true}
				written = append(written, sl)
			case OpReduce:
				base := state[sl]
				if base == nil {
					return fmt.Errorf("%w: %s: %v: r%d has no local chunk %d to reduce into",
						ErrUseBeforeRecv, p.Name, op, op.Rank, op.Chunk)
				}
				if pw.val == nil {
					pw.val = base.clone()
					written = append(written, sl)
				} else if pw.recv {
					return fmt.Errorf("%w: %s: %v: recv and reduce hit chunk %d at r%d in the same step",
						ErrWriteConflict, p.Name, op, op.Chunk, op.Rank)
				}
				if pw.val.intersects(src) {
					return fmt.Errorf("%w: %s: %v: contributions %v already folded in",
						ErrDoubleReduce, p.Name, op, src.ranks(p))
				}
				pw.val.union(src)
			}
		}
		for _, sl := range written {
			state[sl] = pending[sl].val
			pending[sl] = pendingWrite{}
		}
		written = written[:0]
	}

	// Postconditions, in (rank, chunk) order.
	nc := len(p.Chunks)
	for sl, want := range p.postconditions() {
		if want == nil {
			continue
		}
		got := state[sl]
		if got == nil {
			return fmt.Errorf("%w: %s: r%d never receives chunk %d",
				ErrPostcondition, p.Name, p.Ranks[sl/nc], sl%nc)
		}
		if !got.equal(want) {
			return fmt.Errorf("%w: %s: r%d chunk %d holds contributions %v, want %v",
				ErrPostcondition, p.Name, p.Ranks[sl/nc], sl%nc, got.ranks(p), want.ranks(p))
		}
	}
	return nil
}

// stepOrder groups the op indices by ascending step, program order within
// a step: a counting sort over the distinct steps. Group g is
// order[bounds[g]:bounds[g+1]].
func (p *Program) stepOrder() (order, bounds []int) {
	steps := make([]int, len(p.Ops))
	for i, op := range p.Ops {
		steps[i] = op.Step
	}
	slices.Sort(steps)
	steps = slices.Compact(steps)
	group := make([]int, len(p.Ops))
	bounds = make([]int, len(steps)+1)
	for i, op := range p.Ops {
		group[i], _ = slices.BinarySearch(steps, op.Step)
		bounds[group[i]+1]++
	}
	for g := range steps {
		bounds[g+1] += bounds[g]
	}
	next := slices.Clone(bounds)
	order = make([]int, len(p.Ops))
	for i, g := range group {
		order[next[g]] = i
		next[g]++
	}
	return order, bounds
}

// matchTransfers pairs sends with receivers: every Send must have exactly
// as many matching Recv/Reduce ops at the same (step, chunk, src, dst),
// and vice versa. Our IR is point-to-point, so the counts must be equal (a
// multicast is expressed as multiple sends). Step by step, the send and
// receive keys are sorted and compared; the first position where the two
// lists differ holds the lowest mismatched key.
func (p *Program) matchTransfers(order, bounds []int) error {
	n := uint64(len(p.Ranks))
	key := func(chunk, src, dst int) uint64 {
		return (uint64(chunk)*n+uint64(p.rankIndex(src)))*n + uint64(p.rankIndex(dst))
	}
	var sends, recvs []uint64
	for g := 0; g+1 < len(bounds); g++ {
		sends, recvs = sends[:0], recvs[:0]
		for _, i := range order[bounds[g]:bounds[g+1]] {
			switch op := p.Ops[i]; op.Kind {
			case OpSend:
				sends = append(sends, key(op.Chunk, op.Rank, op.Peer))
			case OpRecv, OpReduce:
				recvs = append(recvs, key(op.Chunk, op.Peer, op.Rank))
			}
		}
		slices.Sort(sends)
		slices.Sort(recvs)
		i := 0
		for i < len(sends) && i < len(recvs) && sends[i] == recvs[i] {
			i++
		}
		var k uint64
		switch {
		case i == len(sends) && i == len(recvs):
			continue
		case i == len(sends):
			k = recvs[i]
		case i == len(recvs):
			k = sends[i]
		default:
			k = min(sends[i], recvs[i])
		}
		ns, nr := count(sends, k), count(recvs, k)
		step, chunk, src, dst := p.Ops[order[bounds[g]]].Step, k/(n*n), p.Ranks[k/n%n], p.Ranks[k%n]
		if ns > 0 {
			return fmt.Errorf("%w: %s: step %d chunk %d r%d -> r%d has %d send(s) but %d receive(s)",
				ErrUnmatched, p.Name, step, chunk, src, dst, ns, nr)
		}
		return fmt.Errorf("%w: %s: step %d chunk %d r%d -> r%d has %d receive(s) but %d send(s)",
			ErrUnmatched, p.Name, step, chunk, src, dst, nr, ns)
	}
	return nil
}

// count returns how often k occurs in the sorted keys.
func count(keys []uint64, k uint64) int {
	lo, _ := slices.BinarySearch(keys, k)
	hi := lo
	for hi < len(keys) && keys[hi] == k {
		hi++
	}
	return hi - lo
}

// slot is the index of (rank, chunk) in the verifier's dense tables:
// rank-major, so ascending indices run in (rank, chunk) order.
func (p *Program) slot(rank, chunk int) int {
	return p.rankIndex(rank)*len(p.Chunks) + chunk
}

// validateStructure checks the program shell before any simulation.
func (p *Program) validateStructure() error {
	n := len(p.Ranks)
	if n < 2 {
		return fmt.Errorf("%w: %s: need at least 2 ranks, have %d", ErrProgram, p.Name, n)
	}
	for i := 1; i < n; i++ {
		if p.Ranks[i] <= p.Ranks[i-1] {
			return fmt.Errorf("%w: %s: ranks must be sorted and distinct", ErrProgram, p.Name)
		}
	}
	switch p.Collective {
	case Broadcast, Reduce:
		if p.rankIndex(p.Root) < 0 {
			return fmt.Errorf("%w: %s: root %d is not a participant", ErrProgram, p.Name, p.Root)
		}
	case AllReduce, ReduceScatter, AllGather, AlltoAll:
		// rootless
	default:
		return fmt.Errorf("%w: %s: unknown collective %d", ErrProgram, p.Name, int(p.Collective))
	}
	if len(p.Chunks) == 0 {
		return fmt.Errorf("%w: %s: no chunks", ErrProgram, p.Name)
	}
	// The dense slot tables and the transfer keys (chunk, src, dst) packed
	// into a uint64 need ranks × chunks to stay below 2^32.
	if len(p.Chunks) > math.MaxUint32/n {
		return fmt.Errorf("%w: %s: %d ranks × %d chunks exceed 2^32 slots", ErrProgram, p.Name, n, len(p.Chunks))
	}

	// Chunk-table coverage: the chunk roles must span the collective's
	// full footprint, otherwise a schedule could satisfy a postcondition
	// trivially by declaring less data.
	switch p.Collective {
	case ReduceScatter, AllGather:
		seen := make([]bool, n)
		for ci, c := range p.Chunks {
			if c.Shard < 0 || c.Shard >= n {
				return fmt.Errorf("%w: %s: chunk %d shard %d out of range", ErrProgram, p.Name, ci, c.Shard)
			}
			seen[c.Shard] = true
		}
		for s, ok := range seen {
			if !ok {
				return fmt.Errorf("%w: %s: shard %d has no chunks", ErrProgram, p.Name, s)
			}
		}
	case AlltoAll:
		covered := make(map[[2]int]bool)
		for ci, c := range p.Chunks {
			if p.rankIndex(c.Src) < 0 || p.rankIndex(c.Dst) < 0 {
				return fmt.Errorf("%w: %s: chunk %d pair (%d,%d) not participants", ErrProgram, p.Name, ci, c.Src, c.Dst)
			}
			covered[[2]int{c.Src, c.Dst}] = true
		}
		for _, src := range p.Ranks {
			for _, dst := range p.Ranks {
				if !covered[[2]int{src, dst}] {
					return fmt.Errorf("%w: %s: no chunk for pair r%d -> r%d", ErrProgram, p.Name, src, dst)
				}
			}
		}
	}

	for _, op := range p.Ops {
		switch op.Kind {
		case OpSend, OpRecv, OpReduce, OpCopy:
		default:
			return fmt.Errorf("%w: %s: bad op kind %d", ErrProgram, p.Name, int(op.Kind))
		}
		if p.rankIndex(op.Rank) < 0 {
			return fmt.Errorf("%w: %s: %v: rank %d is not a participant", ErrProgram, p.Name, op, op.Rank)
		}
		if op.Chunk < 0 || op.Chunk >= len(p.Chunks) {
			return fmt.Errorf("%w: %s: %v: chunk index out of range", ErrProgram, p.Name, op)
		}
		if op.Step < 0 {
			return fmt.Errorf("%w: %s: %v: negative step", ErrProgram, p.Name, op)
		}
		switch op.Kind {
		case OpSend, OpRecv, OpReduce:
			if p.rankIndex(op.Peer) < 0 {
				return fmt.Errorf("%w: %s: %v: peer %d is not a participant", ErrProgram, p.Name, op, op.Peer)
			}
			if op.Peer == op.Rank {
				return fmt.Errorf("%w: %s: %v: self transfer", ErrProgram, p.Name, op)
			}
		case OpCopy:
			if op.Peer != -1 {
				return fmt.Errorf("%w: %s: %v: copy must have peer -1", ErrProgram, p.Name, op)
			}
		}
	}
	return nil
}

// preconditions derives the initial chunk state as a dense slot table.
func (p *Program) preconditions() []contrib {
	n, nc := len(p.Ranks), len(p.Chunks)
	pre := make([]contrib, n*nc)
	single := p.singletons()
	for ci, c := range p.Chunks {
		switch p.Collective {
		case Broadcast:
			ri := p.rankIndex(p.Root)
			pre[ri*nc+ci] = single(ri)
		case Reduce, AllReduce, ReduceScatter:
			// Every rank starts with its own contribution for every chunk.
			for ri := 0; ri < n; ri++ {
				pre[ri*nc+ci] = single(ri)
			}
		case AllGather:
			// Shard s starts at rank index s only.
			pre[c.Shard*nc+ci] = single(c.Shard)
		case AlltoAll:
			ri := p.rankIndex(c.Src)
			pre[ri*nc+ci] = single(ri)
		}
	}
	return pre
}

// postconditions derives the required final chunk state as a dense slot
// table; nil entries carry no requirement.
func (p *Program) postconditions() []contrib {
	n, nc := len(p.Ranks), len(p.Chunks)
	post := make([]contrib, n*nc)
	single := p.singletons()
	full := fullContrib(n)
	for ci, c := range p.Chunks {
		switch p.Collective {
		case Broadcast:
			root := single(p.rankIndex(p.Root))
			for ri := 0; ri < n; ri++ {
				post[ri*nc+ci] = root
			}
		case Reduce:
			post[p.rankIndex(p.Root)*nc+ci] = full
		case AllReduce:
			for ri := 0; ri < n; ri++ {
				post[ri*nc+ci] = full
			}
		case ReduceScatter:
			post[c.Shard*nc+ci] = full
		case AllGather:
			src := single(c.Shard)
			for ri := 0; ri < n; ri++ {
				post[ri*nc+ci] = src
			}
		case AlltoAll:
			post[p.rankIndex(c.Dst)*nc+ci] = single(p.rankIndex(c.Src))
		}
	}
	return post
}

// singletons returns a memoizing constructor of the one-member
// contribution sets, so slots requiring the same set share it.
func (p *Program) singletons() func(ri int) contrib {
	n := len(p.Ranks)
	memo := make([]contrib, n)
	return func(ri int) contrib {
		if memo[ri] == nil {
			memo[ri] = singleton(n, ri)
		}
		return memo[ri]
	}
}
