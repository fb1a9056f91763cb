package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"adapcc/internal/metrics"
	"adapcc/internal/payload"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// setupRepeats is how many times the workload is set up from scratch;
	// setup_s is the median.
	setupRepeats int
	// small runs the workload at its smallest size (the self-test).
	small bool
	// wrongExpect corrupts one expected checksum, to prove the correctness
	// gate counts the op as failed (the self-test).
	wrongExpect bool
	// stateDir holds the per-seed fingerprints and the result files.
	stateDir string
}

// Set-up is repeated at least config.setupRepeats times, and further while
// the repeats took less than minSetupTime in total, up to maxSetupRepeats.
const (
	minSetupTime    = time.Second
	maxSetupRepeats = 100
)

// maxMeasure bounds a phase that has to go on past its time to complete
// the virtual-metric prefix, so a pathologically slow build still exits.
const maxMeasure = 100 * time.Second

// harness drives one workload in a closed loop: a single caller issues op
// i+1 only after op i has completed and been verified.
type harness struct {
	cfg  config
	plan plan
	w    workload

	attempted, failed int
	errors            []string
	// refs maps a block position to the fingerprint of its first run.
	refs map[int]string
	// prefix holds the results of ops 0..plan.prefix-1.
	prefix []opResult
}

// phase is one stretch of timed ops.
type phase struct {
	wallMs  []float64
	cpuMs   []float64 // process CPU time of each op (see processCPU)
	refMs   []float64 // CPU time of the reference kernel run before each op
	normMs  []float64 // CPU time of each op normalised to the reference host
	evs     []float64 // simulation events of each op
	pos     []int     // block position of each timed op (0 without a period)
	heap    float64
	events  uint64
	results []opResult
	tracer  *tracer
}

// byPos groups per-op values by block position.
func (p phase) byPos(v []float64) map[int][]float64 {
	g := map[int][]float64{}
	for i, x := range v {
		g[p.pos[i]] = append(g[p.pos[i]], x)
	}
	return g
}

// posMedians is each block position's median of v. Positions run ops of
// very different sizes, so statistics over a run are taken over these
// per-position medians: one slow copy of an op moves its position's median
// little, and never across the gap between two sizes.
func (p phase) posMedians(v []float64) []float64 {
	var meds []float64
	for _, xs := range p.byPos(v) {
		meds = append(meds, median(xs))
	}
	return meds
}

// opsPerSec is verified ops per second of the given per-op times: a
// block's ops over its time, both from the per-position medians (a block
// is one op for a workload without a period).
func (p phase) opsPerSec(opMs []float64) float64 {
	meds := p.posMedians(opMs)
	return perSec(float64(len(meds)), sum(meds))
}

// eventsPerSec is simulation events per second of the given per-op times.
func (p phase) eventsPerSec(opMs []float64) float64 {
	return perSec(sum(p.posMedians(p.evs)), sum(p.posMedians(opMs)))
}

// perSec is n per second of millis milliseconds, 0 without time.
func perSec(n, millis float64) float64 {
	if millis <= 0 {
		return 0
	}
	return n / (millis / 1e3)
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

func (h *harness) fail(format string, args ...any) {
	h.failed++
	if len(h.errors) < 8 {
		h.errors = append(h.errors, fmt.Sprintf(format, args...))
	}
}

// op runs op i at the given worker count (0: the workload's own), verifies
// it and checks it reproduces its block position's first run.
func (h *harness) op(i, workers int, t *tracer) (opResult, opCost, bool) {
	h.attempted++
	var r opResult
	var err error
	if workers > 0 {
		r, err = h.w.(scaled).runAt(i, workers, t)
	} else {
		r, err = h.w.run(i, t)
	}
	c := t.takeOp()
	if err != nil {
		h.fail("op %d: %v", i, err)
		return r, c, false
	}
	fp := r.fingerprint()
	if h.plan.period > 0 {
		pos := i % h.plan.period
		ref, seen := h.refs[pos]
		switch {
		case !seen:
			// The scale tier's expected checksum is its first run's, so the
			// self-test's wrong expectation corrupts that reference.
			if _, ok := h.w.(scaled); ok && h.cfg.wrongExpect && pos == 0 {
				fp += " (corrupted)"
			}
			h.refs[pos] = fp
		case ref != fp:
			h.fail("op %d (workers %d) does not reproduce block position %d: %s, first run %s", i, workers, pos, r.fingerprint(), ref)
			return r, c, false
		}
	}
	if i < h.plan.prefix && workers == 0 {
		h.prefix = append(h.prefix, r)
	}
	return r, c, true
}

// measure runs ops from index next on until d has passed, at least
// minNext ops have been issued in total and the last block is complete (so
// every phase of a periodic workload runs the same mix of ops), and returns
// the phase and the next op index.
func (h *harness) measure(next int, d time.Duration, minNext int, t *tracer) (phase, int) {
	p := phase{tracer: t}
	start, first := time.Now(), next
	more := func() bool {
		return time.Since(start) < d || next < minNext || (h.plan.period > 0 && (next-first)%h.plan.period != 0)
	}
	for more() && time.Since(start) < maxMeasure {
		// refCPU collects the heap before and after the kernel, so the op
		// starts from a collected heap: the previous op's garbage is not
		// collected, by chance, inside its time.
		ref := refCPU()
		r, c, ok := h.op(next, 0, t)
		next++
		if !ok {
			continue
		}
		p.wallMs = append(p.wallMs, ms(c.wall))
		p.cpuMs = append(p.cpuMs, ms(c.cpu))
		p.refMs = append(p.refMs, ms(ref))
		p.evs = append(p.evs, float64(r.events))
		p.pos = append(p.pos, (next-1)%max(h.plan.period, 1))
		p.heap += c.heap
		p.events += r.events
		p.results = append(p.results, r)
	}
	p.normMs = normalise(p.cpuMs, p.refMs)
	return p, next
}

// report is everything one run measured.
type report struct {
	env       map[string]any
	correct   bool
	attempted int
	failed    int
	errors    []string
	endToEnd  []metric // BENCHMARK.json end_to_end, untraced runs only
	extra     []metric // workload-specific figures, printed and saved
	perLayer  []metric // BENCHMARK.json per_layer, traced runs only
	opWallMs  []float64
	opCPUMs   []float64
	refMs     []float64
	setupS    []float64
}

type metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
}

func runBench(cfg config) (*report, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var w workload
	var setupCPUMs, setupRefMs []float64
	setupSpans := map[string][]float64{}
	// Cheap set-ups are repeated more, up to minSetupTime in total, so
	// their median is not a handful of millisecond-scale samples.
	var spent time.Duration
	for rep := 0; rep < cfg.setupRepeats || (spent < minSetupTime && rep < maxSetupRepeats); rep++ {
		w = nil // the kernel's collections drop the previous instance
		ref := refCPU()
		w = def.make(cfg)
		t := newTracer()
		cpu0 := processCPU()
		if err := w.setup(t); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		took := processCPU() - cpu0
		spent += took
		setupCPUMs = append(setupCPUMs, ms(took))
		setupRefMs = append(setupRefMs, ms(ref))
		for name, d := range t.total {
			setupSpans[name] = append(setupSpans[name], ms(d))
		}
	}

	setupS := normalise(setupCPUMs, setupRefMs)
	for i := range setupS {
		setupS[i] /= 1e3
	}

	h := &harness{cfg: cfg, plan: def.plan, w: w, refs: map[int]string{}}
	warm := newTracer()
	next := 0
	for ; next < def.plan.warm; next++ {
		h.op(next, 0, warm)
	}

	rep := &report{}
	var measured phase
	if !cfg.trace {
		measured, _ = h.measure(next, cfg.seconds, def.plan.prefix, newTracer())
		rep.opWallMs, rep.opCPUMs, rep.refMs = measured.wallMs, measured.cpuMs, measured.refMs
	} else {
		untraced, n := h.measure(next, cfg.seconds/2, def.plan.prefix, newTracer())
		tp, n, err := h.traced(n, cfg.seconds/2)
		if err != nil {
			return nil, err
		}
		gain := 0.0 // no parallel engine outside the scale tier
		if _, ok := w.(scaled); ok {
			gain = h.parallelGain(n)
		}
		rep.perLayer = append(perLayer(untraced, tp, setupSpans), metric{Name: "sim.parallel_gain", Value: gain, Unit: "ratio"})
		rep.opWallMs = append(untraced.wallMs, tp.wallMs...)
		rep.opCPUMs = append(untraced.cpuMs, tp.cpuMs...)
	}
	if len(h.prefix) < def.plan.prefix {
		h.fail("only %d of the %d ops the virtual metrics need completed", len(h.prefix), def.plan.prefix)
	} else if err := checkFingerprints(cfg, w.spec(), h.prefix); err != nil {
		h.fail("%v", err)
	}
	virtualMs, extra := virtualMetrics(def.name, h.prefix)
	rep.extra = extra
	if !cfg.trace {
		rep.endToEnd = endToEnd(measured, median(setupS), virtualMs)
		rep.extra = append(rep.extra,
			metric{"ops_per_cpu_s", measured.opsPerSec(measured.cpuMs), "1/s", "higher"},
			metric{"op_cpu_ms_p50", median(measured.posMedians(measured.cpuMs)), "ms", "lower"},
			metric{"op_wall_ms_p50", median(measured.posMedians(measured.wallMs)), "ms", "lower"},
			metric{"setup_cpu_s", median(setupCPUMs) / 1e3, "s", "lower"},
			metric{"ref_kernel_ms", median(measured.refMs), "ms", ""})
		if len(measured.wallMs) >= 100 {
			rep.extra = append(rep.extra,
				metric{"op_ms_p90_norm", quantile(measured.normMs, 0.9), "ms", "lower"},
				metric{"op_wall_ms_p90", quantile(measured.wallMs, 0.9), "ms", "lower"})
		}
	}
	rep.attempted, rep.failed, rep.errors = h.attempted, h.failed, h.errors
	rep.correct = h.failed == 0
	rep.extra = append(rep.extra, metric{Name: "fail_ratio", Value: float64(h.failed) / float64(max(h.attempted, 1)), Unit: "ratio", Better: "lower"})
	rep.env = envStamp(cfg, len(rep.opWallMs), len(setupS))
	rep.setupS = setupS
	return rep, nil
}

// traced runs the traced phase: the program exports its counters into a
// registry, the spans label the CPU profile, and the payload pool's
// high-water mark is reset.
func (h *harness) traced(next int, d time.Duration) (tracedPhase, int, error) {
	reg := metrics.New()
	h.w.setMetrics(reg)
	defer h.w.setMetrics(nil)
	payload.ResetPoolStats()
	t := newTracer()
	t.label = true
	gc0 := runtimeMetric(gcCPU)
	prof, err := startProfile()
	if err != nil {
		return tracedPhase{}, next, err
	}
	p, next := h.measure(next, d, next+1, t)
	attr, err := prof.stop()
	if err != nil {
		return tracedPhase{}, next, err
	}
	return tracedPhase{
		phase: p,
		snap:  reg.Snapshot(),
		attr:  attr,
		gcCPU: runtimeMetric(gcCPU) - gc0,
		pool:  payload.PoolStats(),
	}, next, nil
}

type tracedPhase struct {
	phase
	snap  metrics.Snapshot
	attr  attribution
	gcCPU float64
	pool  payload.PoolStatsSnapshot
}

// parallelGain runs one op at the default worker count and again on one
// worker, checks both reproduce the block position's first run, and
// returns wall(1 worker) / wall(default).
func (h *harness) parallelGain(i int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	t := newTracer()
	_, cN, okN := h.op(i, runtime.NumCPU(), t)
	_, c1, ok1 := h.op(i, 1, t)
	if !okN || !ok1 || cN.wall <= 0 {
		return 0
	}
	return float64(c1.wall) / float64(cN.wall)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the q-quantile of v by linear interpolation between order
// statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}
