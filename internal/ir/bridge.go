package ir

import (
	"fmt"

	"adapcc/internal/collective"
	"adapcc/internal/strategy"
)

// Lowered pairs an IR program with the strategy it was lowered from, so a
// verified program can be played on the existing collective engine. The
// executor still runs the strategy — chunk timing, routing and stream
// scheduling are its domain — which keeps IR-executed timelines
// bit-identical to the direct strategy path; the IR contributes the
// correctness proof.
type Lowered struct {
	Program  *Program
	Strategy *strategy.Strategy
}

// Lower lowers a single-root or rootless strategy (Reduce, Broadcast,
// AllReduce, AlltoAll) into an executable IR program.
func Lower(st *strategy.Strategy) (*Lowered, error) {
	p, err := FromStrategy(st)
	if err != nil {
		return nil, err
	}
	return &Lowered{Program: p, Strategy: st}, nil
}

// Play verifies the program and, only if the proof passes, runs the
// backing strategy on the executor. The op's Strategy field is supplied
// by the Lowered pair; every other field (inputs, mode, class, OnDone)
// is the caller's.
func (l *Lowered) Play(exec *collective.Executor, op collective.Op) error {
	if l == nil || l.Program == nil || l.Strategy == nil {
		return fmt.Errorf("%w: empty lowering", ErrProgram)
	}
	if err := Verify(l.Program); err != nil {
		return err
	}
	op.Strategy = l.Strategy
	return exec.Run(op)
}
