package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"adapcc/internal/metrics"
)

// endToEnd computes the metrics BENCHMARK.json names as end_to_end from an
// untraced phase. Op time is process CPU time over submit plus drain,
// normalised to the reference host (see refNominal); the benchmark's input
// generation and checks are excluded.
func endToEnd(p phase, setupS, virtualMs float64) []metric {
	ops := float64(max(len(p.normMs), 1))
	return []metric{
		{"ops_per_s_norm", p.opsPerSec(p.normMs), "1/s", "higher"},
		{"op_ms_p50_norm", median(p.posMedians(p.normMs)), "ms", "lower"},
		{"events_per_s_norm", p.eventsPerSec(p.normMs), "1/s", "higher"},
		{"alloc_mb_per_op", p.heap / 1e6 / ops, "MB", "lower"},
		{"setup_s", setupS, "s", "lower"},
		{"virtual_ms_per_op", virtualMs, "ms", "lower"},
	}
}

// virtualMetrics are the simulated-time figures over the deterministic
// prefix of ops, so they depend only on the workload and its seed: the
// mean simulated time per op, and the workload's own figure.
func virtualMetrics(workload string, prefix []opResult) (float64, []metric) {
	if len(prefix) == 0 {
		return 0, nil
	}
	var virt time.Duration
	var bytes int64
	var ttr, tail []float64
	for _, r := range prefix {
		virt += r.virtual
		bytes += r.bytes
		ttr = append(ttr, ms(r.ttr))
		tail = append(tail, ms(r.tail))
	}
	var out []metric
	switch workload {
	case "testbed-dense":
		out = append(out, metric{"sim_algbw_gbps", float64(bytes) / virt.Seconds() / 1e9, "GB/s", "higher"})
	case "recover-256", "sweep-1024":
		out = append(out, metric{"ttr_virtual_ms_p50", median(ttr), "ms", "lower"})
	case "congest-512":
		out = append(out, metric{"iter_tail_virtual_ms", median(tail), "ms", "lower"})
	}
	return ms(virt) / float64(len(prefix)), out
}

// perLayer computes the metrics BENCHMARK.json names as per_layer from the
// traced phase. Counts, times and CPU are per op unless the name says
// ratio; the set-up spans are medians over the set-up repeats.
func perLayer(untraced phase, tp tracedPhase, setupSpans map[string][]float64) []metric {
	ops := float64(max(len(tp.results), 1))
	sums := map[string]float64{}
	peaks := map[string]float64{}
	for _, r := range tp.results {
		for k, v := range r.sums {
			sums[k] += v
		}
		for k, v := range r.peaks {
			peaks[k] = max(peaks[k], v)
		}
	}
	perOp := func(name string) float64 { return sums[name] / ops }
	fam := func(name string) float64 {
		f, ok := tp.snap.Family(name)
		if !ok {
			return 0
		}
		return f.Total()
	}
	series := func(name, label, value string) float64 { return seriesTotal(tp.snap, name, label, value) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	span := func(name string) float64 { return ms(tp.tracer.total[name]) / ops }
	self := func(bucket string) float64 { return ms(tp.attr.self[bucket]) / ops }
	setup := func(name string) float64 { return median(setupSpans[name]) }
	resolves := fam("adapcc_synth_resolves_total")
	full := series("adapcc_synth_resolves_total", "mode", "full")
	patched := series("adapcc_synth_resolves_total", "mode", "patched")

	out := []metric{
		{"sim.events", float64(tp.events) / ops, "count", ""},
		{"sim.self_ms", self("sim"), "ms", ""},
		{"sim.windows", perOp("sim.windows"), "count", ""},
		{"sim.lookahead_stalls", perOp("sim.lookahead_stalls"), "count", ""},
		{"sim.max_queue_depth", peaks["sim.max_queue_depth"], "count", ""},
		{"sim.busy_over_wall", perOp("sim.busy_over_wall"), "ratio", ""},
		{"sim.drain_ms", span("sim.drain") + span("scale.run"), "ms", ""},
		{"fabric.self_ms", self("fabric"), "ms", ""},
		{"fabric.link_mb", fam("adapcc_link_bytes_total") / 1e6 / ops, "MB", ""},
		{"fabric.link_wait_virtual_ms", fam("adapcc_link_wait_seconds") * 1e3 / ops, "ms", ""},
		{"fabric.pause_frames", perOp("fabric.pause_frames") + fam("adapcc_congest_pause_frames_total")/ops, "count", ""},
		{"fabric.max_queue_bytes", peaks["fabric.max_queue_bytes"], "B", ""},
		{"topology.self_ms", self("topology"), "ms", ""},
		{"setup.topo_ms", setup("setup.topo"), "ms", ""},
		{"scale.self_ms", self("scale"), "ms", ""},
		{"scale.path_reroutes", perOp("scale.path_reroutes"), "count", ""},
		{"scale.adaptations", perOp("scale.adaptations"), "count", ""},
		{"scale.time_to_adapt_virtual_ms", perOp("scale.time_to_adapt_virtual_ms"), "ms", ""},
		{"scale.recoveries_domain_local", perOp("scale.recoveries_domain_local"), "count", ""},
		{"scale.recoveries_boundary", perOp("scale.recoveries_boundary"), "count", ""},
		{"scale.retransmits", perOp("scale.retransmits"), "count", ""},
		{"scale.reroutes", perOp("scale.reroutes"), "count", ""},
		{"grayfail.degraded", perOp("grayfail.degraded"), "count", ""},
		{"grayfail.restored", perOp("grayfail.restored"), "count", ""},
		{"grayfail.condemned", perOp("grayfail.condemned"), "count", ""},
		{"grayfail.self_ms", self("grayfail"), "ms", ""},
		{"core.submit_ms", span("core.submit"), "ms", ""},
		{"core.cache_hit_ratio", ratio(series("adapcc_strategy_cache_total", "result", "hit"), fam("adapcc_strategy_cache_total")), "ratio", ""},
		{"core.attempts_per_op", perOp("core.attempts"), "count", ""},
		{"core.self_ms", self("core"), "ms", ""},
		{"core.cum_ms", ms(tp.attr.cum["core"]) / ops, "ms", ""},
		{"setup.env_ms", setup("setup.env"), "ms", ""},
		{"setup.detect_ms", setup("setup.detect"), "ms", ""},
		{"setup.profile_ms", setup("setup.profile"), "ms", ""},
		{"synth.resolves_full", full / ops, "count", ""},
		{"synth.resolves_patched", patched / ops, "count", ""},
		{"synth.resolves_other", (resolves - full - patched) / ops, "count", ""},
		{"synth.patch_adopt_ratio", ratio(series("adapcc_synth_patches_total", "result", "adopted"), fam("adapcc_synth_patches_total")), "ratio", ""},
		{"synth.solve_virtual_ms", fam("adapcc_resynthesis_seconds") * 1e3 / ops, "ms", ""},
		{"synth.self_ms", self("synth"), "ms", ""},
		{"ir.verify_calls", fam("adapcc_ir_verify_total") / ops, "count", ""},
		{"ir.reject_ratio", ratio(series("adapcc_ir_verify_total", "result", "reject"), fam("adapcc_ir_verify_total")), "ratio", ""},
		{"ir.self_ms", self("ir"), "ms", ""},
		{"ir.cum_ms", ms(tp.attr.cum["ir"]) / ops, "ms", ""},
		{"collective.chunk_hops", fam("adapcc_chunk_hops_total") / ops, "count", ""},
		{"collective.wire_mb", fam("adapcc_collective_wire_bytes_total") / 1e6 / ops, "MB", ""},
		{"collective.deadlines", fam("adapcc_chunk_deadlines_total") / ops, "count", ""},
		{"collective.retransmits", fam("adapcc_chunk_retransmits_total") / ops, "count", ""},
		{"collective.self_ms", self("collective"), "ms", ""},
		{"payload.pool_peak_bufs", float64(tp.pool.Peak), "count", ""},
		{"payload.self_ms", self("payload"), "ms", ""},
		{"runtime.gc_cpu_ms", tp.gcCPU * 1e3 / ops, "ms", ""},
		{"runtime.self_ms", self("runtime"), "ms", ""},
		{"runtime.peak_rss_mb", peakRSSMB(), "MB", ""},
		{"device.kernels", fam("adapcc_gpu_kernels_total") / ops, "count", ""},
		{"device.self_ms", self("device"), "ms", ""},
		{"chaos.injected", perOp("chaos.injected"), "count", ""},
		{"chaos.self_ms", self("chaos"), "ms", ""},
		{"other.self_ms", self("other"), "ms", ""},
		{"bench.self_ms", self("bench"), "ms", ""},
		{"bench.input_ms", span(spanInput), "ms", ""},
		{"bench.check_ms", span(spanCheck), "ms", ""},
		{"trace.overhead_ratio", ratio(tp.opsPerSec(tp.normMs), untraced.opsPerSec(untraced.normMs)), "ratio", ""},
		{"profile.coverage", tp.attr.coverage(), "ratio", ""},
		{"profile.total_ms", ms(tp.attr.total) / ops, "ms", ""},
	}
	for _, l := range ladders {
		out = append(out, metric{"core.recoveries_by_ladder." + l, series("adapcc_core_recoveries_total", "ladder", l) / ops, "count", ""})
	}
	return out
}

// ladders are the synthesis rungs RunResilient reports a recovery under.
var ladders = []string{"incremental", "full", "fast", "degraded-ring"}

// seriesTotal sums a family's series whose label has the given value.
func seriesTotal(snap metrics.Snapshot, name, label, value string) float64 {
	f, ok := snap.Family(name)
	if !ok {
		return 0
	}
	var t float64
	for _, s := range f.Series {
		if s.Labels[label] != value {
			continue
		}
		if f.Kind == "histogram" {
			t += s.Sum
		} else {
			t += s.Value
		}
	}
	return t
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// fingerprintFile is the per-seed record of the prefix ops' virtual
// results, kept so every later run of the seed is checked against it.
type fingerprintFile struct {
	Spec string   `json:"spec"`
	Ops  []string `json:"ops"`
}

// checkFingerprints compares the prefix ops with the first run of the same
// workload, seed and inputs in this checkout, and records them if there was
// none. A mismatch means the simulation is not deterministic.
func checkFingerprints(cfg config, spec string, prefix []opResult) error {
	cur := fingerprintFile{Spec: fmt.Sprintf("%x", sha256.Sum256([]byte(spec)))}
	for _, r := range prefix {
		cur.Ops = append(cur.Ops, r.fingerprint())
	}
	path := filepath.Join(cfg.stateDir, "fingerprints", fmt.Sprintf("%s-small%v-seed%d.json", cfg.workload, cfg.small, cfg.seed))
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		var prev fingerprintFile
		if err := json.Unmarshal(data, &prev); err == nil && prev.Spec == cur.Spec {
			for i := range prev.Ops {
				if i < len(cur.Ops) && prev.Ops[i] != cur.Ops[i] {
					return fmt.Errorf("op %d of seed %d differs from an earlier run: %s, earlier %s", i, cfg.seed, cur.Ops[i], prev.Ops[i])
				}
			}
			return nil
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	return writeJSON(path, cur)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// envStamp records where and how the run was made.
func envStamp(cfg config, ops, setups int) map[string]any {
	host, _ := os.Hostname()
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+dirty"
				}
			}
		}
	}
	return map[string]any{
		"host":          host,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"workers":       benchWorkers,
		"seconds":       cfg.seconds.Seconds(),
		"trace":         cfg.trace,
		"setup_repeats": setups,
		"ops_measured":  ops,
	}
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
