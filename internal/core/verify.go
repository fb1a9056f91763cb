package core

import (
	"fmt"
	"strconv"

	"adapcc/internal/backend"
	"adapcc/internal/ir"
	"adapcc/internal/strategy"
	"adapcc/internal/synth"
)

// multiRootStrategy synthesises (with caching) the multi-root assembly a
// first-class AllGather (Broadcast trees) or ReduceScatter (Reduce
// trees) runs as one op. Cached under its own key family so it never
// collides with the single-root entries of the same shape.
func (a *AdapCC) multiRootStrategy(p strategy.Primitive, bytes int64, ranks []int, cfg backend.RunConfig) (*synth.Result, error) {
	key := "multiroot|" + cacheKey(p, bytes, ranks, cfg.Relays, -1)
	if cfg.FastPath {
		key = "fast|" + key
	}
	full := key
	if pre := a.prefix(); pre != "" {
		full = pre + key
	}
	if res, ok := a.cache[full]; ok {
		a.recordCacheLookup(true)
		return res, nil
	}
	a.recordCacheLookup(false)
	if res := a.patchFromPrevious(key, true); res != nil {
		a.cache[full] = res
		a.lastSolveTime += res.SolveTime
		return res, nil
	}
	res, err := a.planner.MultiRoot(a.activeCosts(), synth.Request{
		Primitive:  p,
		Bytes:      bytes,
		Ranks:      ranks,
		Relays:     cfg.Relays,
		FastSearch: cfg.FastPath,
		Sketch:     a.opts.Sketch,
	})
	if err != nil {
		return nil, err
	}
	if err := a.verifyStrategy(res.Strategy, true); err != nil {
		return nil, err
	}
	a.recordSynth("multiroot", res.SolveTime)
	a.cache[full] = res
	a.lastSolveTime += res.SolveTime
	return res, nil
}

// verifyStrategy, when WithVerify is enabled, lowers a freshly
// synthesised strategy to the chunk-level IR and runs the verifier,
// recording the decision in adapcc_ir_verify_total{result}. multiRoot
// selects the ReduceScatter/AllGather lowering; otherwise the strategy's
// own primitive decides. Verification runs once per synthesis — cached
// strategies were proven when first built.
func (a *AdapCC) verifyStrategy(st *strategy.Strategy, multiRoot bool) error {
	if !a.opts.Verify {
		return nil
	}
	_, err := VerifyStrategy(st, multiRoot)
	ir.RecordVerify(a.reg, a.env.Engine.Now(), err)
	if err != nil {
		return fmt.Errorf("core: synthesised %v strategy (%s bytes) failed verification: %w",
			st.Primitive, strconv.FormatInt(st.TotalBytes, 10), err)
	}
	return nil
}

// verifyPatched is the unconditional IR gate on incrementally patched
// strategies: unlike verifyStrategy it runs regardless of Options.Verify,
// because a patch bypasses the search's vetted candidate space — its flows
// were rerouted by shortest-path surgery, so correctness is proven (chunk
// delivery + exactly-once reduction), never assumed. Decisions land in the
// same adapcc_ir_verify_total{result} counter.
func (a *AdapCC) verifyPatched(st *strategy.Strategy, multiRoot bool) error {
	_, err := VerifyStrategy(st, multiRoot)
	ir.RecordVerify(a.reg, a.env.Engine.Now(), err)
	if err != nil {
		return fmt.Errorf("core: patched %v strategy failed verification: %w", st.Primitive, err)
	}
	return nil
}

// VerifyStrategy lowers and verifies an already-built strategy program —
// the adapccsim -verify flag uses it to check whatever plan a run is
// about to execute, and the controller's verification gates share it — and
// returns the IR program for reporting. multiRoot selects the
// ReduceScatter/AllGather lowering; otherwise the strategy's own primitive
// decides.
func VerifyStrategy(st *strategy.Strategy, multiRoot bool) (*ir.Program, error) {
	var (
		prog *ir.Program
		err  error
	)
	switch {
	case multiRoot && st.Primitive == strategy.Reduce:
		prog, err = ir.ReduceScatterFromStrategy(st)
	case multiRoot && st.Primitive == strategy.Broadcast:
		prog, err = ir.AllGatherFromStrategy(st)
	default:
		prog, err = ir.FromStrategy(st)
	}
	if err != nil {
		return nil, err
	}
	return prog, ir.Verify(prog)
}
