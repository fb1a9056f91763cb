package main

import (
	"bytes"
	"context"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"
)

// spanLabel is the pprof label key the benchmark's spans set, so profile
// samples can be told apart by the span that was open when they were taken.
const spanLabel = "span"

// modules are the program's layers, named after their packages under
// adapcc/internal. Profile time outside them is bucketed as "runtime" (no
// program frame: GC, scheduler), "other" (another internal package) or
// "bench" (the benchmark's own input generation and checks).
var modules = []string{
	"sim", "fabric", "topology", "scale", "grayfail", "core",
	"synth", "ir", "collective", "payload", "device", "chaos",
}

// Spans that are the benchmark's own work, not the program's: excluded
// from op wall time and attributed to the "bench" bucket.
const (
	spanInput = "bench.input"
	spanCheck = "bench.check"
)

// tracer times the benchmark's calls into the program. Every span's wall
// time is always accumulated (op wall time is the sum of the non-bench,
// non-setup spans of one op); with profiling on, each span also labels the
// goroutines it runs so CPU samples carry the span name.
type tracer struct {
	label  bool
	total  map[string]time.Duration
	opWall time.Duration
	opCPU  time.Duration // process CPU time (all threads) inside op spans
	opHeap float64       // bytes allocated inside op spans
}

func newTracer() *tracer { return &tracer{total: map[string]time.Duration{}} }

// span runs fn as the named span.
func (t *tracer) span(name string, fn func()) {
	op := !strings.HasPrefix(name, "bench.") && !strings.HasPrefix(name, "setup.")
	var heap0 float64
	var cpu0 time.Duration
	if op {
		heap0 = runtimeMetric(heapAllocs)
		cpu0 = processCPU()
	}
	start := time.Now()
	if t.label {
		pprof.Do(context.Background(), pprof.Labels(spanLabel, name), func(context.Context) { fn() })
	} else {
		fn()
	}
	d := time.Since(start)
	t.total[name] += d
	if op {
		t.opWall += d
		t.opCPU += processCPU() - cpu0
		t.opHeap += runtimeMetric(heapAllocs) - heap0
	}
}

// Runtime metrics the benchmark reads.
const (
	heapAllocs = "/gc/heap/allocs:bytes"             // cumulative bytes allocated
	gcCPU      = "/cpu/classes/gc/total:cpu-seconds" // cumulative GC CPU time
)

// runtimeMetric reads one runtime/metrics value (0 if unsupported).
func runtimeMetric(name string) float64 {
	s := []rtmetrics.Sample{{Name: name}}
	rtmetrics.Read(s)
	switch s[0].Value.Kind() {
	case rtmetrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case rtmetrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}

// takeOp returns and clears what the op spans since the last call cost.
func (t *tracer) takeOp() opCost {
	c := opCost{wall: t.opWall, cpu: t.opCPU, heap: t.opHeap}
	t.opWall, t.opCPU, t.opHeap = 0, 0, 0
	return c
}

// opCost is what one op cost the host: wall time, process CPU time and
// bytes allocated.
type opCost struct {
	wall, cpu time.Duration
	heap      float64
}

// processCPU is the CPU time the process has used so far, user plus
// system, over all its threads (GC and simulation workers included).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// profile is a running CPU profile.
type profile struct{ buf bytes.Buffer }

func startProfile() (*profile, error) {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and attributes its samples.
func (p *profile) stop() (attribution, error) {
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(p.buf.Bytes())
	if err != nil {
		return attribution{}, err
	}
	return attribute(samples), nil
}

// attribution is a CPU profile bucketed by layer. self maps each bucket
// (a module, "runtime", "other" or "bench") to the CPU time of the samples
// whose innermost program frame lies in it; the buckets partition the
// profile, so they sum to total. cum maps each module to the CPU time of
// the samples with any frame in it.
type attribution struct {
	self  map[string]time.Duration
	cum   map[string]time.Duration
	total time.Duration
}

const internalPrefix = "adapcc/internal/"

// moduleOf names the adapcc/internal package a function belongs to, or "".
func moduleOf(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	rest := fn[len(internalPrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

func attribute(samples []cpuSample) attribution {
	a := attribution{self: map[string]time.Duration{}, cum: map[string]time.Duration{}}
	for _, s := range samples {
		d := time.Duration(s.ns)
		a.total += d
		if s.span == spanInput || s.span == spanCheck {
			a.self["bench"] += d
			continue
		}
		// The innermost frame that is program or benchmark code decides
		// the bucket; runtime frames above it (allocation, GC assists)
		// are charged to that caller.
		bucket := ""
		seen := map[string]bool{}
		for _, fn := range s.funcs {
			m := moduleOf(fn)
			switch {
			case m == "" && strings.HasPrefix(fn, "main."):
				m = "bench"
			case m == "":
				continue
			case !slices.Contains(modules, m):
				m = "other"
			}
			if bucket == "" {
				bucket = m
			}
			if slices.Contains(modules, m) && !seen[m] {
				seen[m] = true
				a.cum[m] += d
			}
		}
		if bucket == "" {
			bucket = "runtime"
		}
		a.self[bucket] += d
	}
	return a
}

// coverage is the share of the program's CPU time (everything but the
// benchmark's own work) that landed on a named layer: a module or the Go
// runtime, rather than another internal package.
func (a attribution) coverage() float64 {
	prog := a.total - a.self["bench"]
	if prog <= 0 {
		return 0
	}
	return 1 - float64(a.self["other"])/float64(prog)
}
