package ir

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// verifyStable runs Verify repeatedly and demands the same error text
// every time, returning it.
func verifyStable(t *testing.T, p *Program, class error) string {
	t.Helper()
	first := Verify(p)
	if !errors.Is(first, class) {
		t.Fatalf("got %v, want %v", first, class)
	}
	for run := 1; run < 50; run++ {
		if err := Verify(p); err == nil || err.Error() != first.Error() {
			t.Fatalf("run %d: error text changed:\n%v\n%v", run, first, err)
		}
	}
	return first.Error()
}

// lastStepRecvs returns the indices of two receives of the program's last
// step that land on different ranks, the lower-ranked receiver first.
func lastStepRecvs(t *testing.T, p *Program) (int, int) {
	t.Helper()
	last := p.Stats().Steps - 1
	lo, hi := -1, -1
	for i, op := range p.Ops {
		if op.Step != last || op.Kind != OpRecv {
			continue
		}
		switch {
		case lo < 0:
			lo = i
		case op.Rank != p.Ops[lo].Rank:
			hi = i
		}
	}
	if hi < 0 {
		t.Fatal("need two last-step receives on different ranks")
	}
	if p.Ops[hi].Rank < p.Ops[lo].Rank {
		lo, hi = hi, lo
	}
	return lo, hi
}

// without returns a copy of p minus the ops the predicate selects.
func without(p *Program, drop func(Op) bool) *Program {
	m := clone(p)
	m.Ops = m.Ops[:0]
	for _, op := range p.Ops {
		if !drop(op) {
			m.Ops = append(m.Ops, op)
		}
	}
	return m
}

// TestVerifyErrorDeterministic gives the verifier programs with two
// independent defects of one class and demands byte-identical error text
// across runs, naming the lowest defect: the lowest (step, chunk, src,
// dst) for unmatched transfers, the lowest (rank, chunk) for
// postconditions.
func TestVerifyErrorDeterministic(t *testing.T) {
	p, err := RingAllGather(spacedRanks(8))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := lastStepRecvs(t, p)
	a, b := p.Ops[lo], p.Ops[hi]

	t.Run("two unmatched sends", func(t *testing.T) {
		m := without(p, func(op Op) bool { return op == a || op == b })
		got := verifyStable(t, m, ErrUnmatched)
		// Both receives share the step; the lower (chunk, src, dst) wins.
		first := a
		if slices.Compare([]int{b.Chunk, b.Peer, b.Rank}, []int{a.Chunk, a.Peer, a.Rank}) < 0 {
			first = b
		}
		want := fmt.Sprintf("%v: %s: step %d chunk %d r%d -> r%d has 1 send(s) but 0 receive(s)",
			ErrUnmatched, p.Name, first.Step, first.Chunk, first.Peer, first.Rank)
		if got != want {
			t.Errorf("got  %s\nwant %s", got, want)
		}
	})

	t.Run("two missing chunks", func(t *testing.T) {
		// Drop both send+recv pairs: the schedule stays matched, but two
		// ranks miss a chunk each.
		pair := func(op, r Op) bool {
			return op == r || (op.Kind == OpSend && op.Step == r.Step && op.Chunk == r.Chunk &&
				op.Rank == r.Peer && op.Peer == r.Rank)
		}
		m := without(p, func(op Op) bool { return pair(op, a) || pair(op, b) })
		got := verifyStable(t, m, ErrPostcondition)
		want := fmt.Sprintf("%v: %s: r%d never receives chunk %d", ErrPostcondition, p.Name, a.Rank, a.Chunk)
		if got != want {
			t.Errorf("got  %s\nwant %s", got, want)
		}
	})
}
