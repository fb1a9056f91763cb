// Command perfbench is the repository's benchmark: it runs one workload in
// a closed loop against the simulator, verifies every op, and prints each
// metric with its unit, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones from a traced run. See README.md.
//
//	go build -o perfbench . && ./perfbench -workload testbed-dense -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	// One OS thread runs Go code, garbage collection included, so an op's
	// process CPU time is its own work and not time spent waiting for a
	// core (see benchWorkers).
	runtime.GOMAXPROCS(1)
	cfg := config{setupRepeats: 5}
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: testbed-dense, recover-256, congest-512 or sweep-1024")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&seconds, "seconds", 20, "how long the measured phase runs")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&cfg.stateDir, "state", ".bench_build", "directory for per-seed fingerprints and result files")
	flag.Parse()
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	if _, ok := findWorkload(cfg.workload); !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>; workloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}

	rep, err := runBench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printReport(cfg, rep)
}

func printReport(cfg config, rep *report) {
	fmt.Printf("# perfbench %s seed=%d trace=%v\n", cfg.workload, cfg.seed, cfg.trace)
	for _, k := range sortedKeys(rep.env) {
		fmt.Printf("env %s = %v\n", k, rep.env[k])
	}
	show := func(kind string, ms []metric) {
		for _, m := range ms {
			better := ""
			if m.Better != "" {
				better = " (" + m.Better + " is better)"
			}
			fmt.Printf("%s %s = %.6g %s%s\n", kind, m.Name, m.Value, m.Unit, better)
		}
	}
	show("metric", rep.endToEnd)
	show("extra", rep.extra)
	show("layer", rep.perLayer)
	for _, e := range rep.errors {
		fmt.Printf("error %s\n", e)
	}

	out := map[string]any{
		"env": rep.env, "correct": rep.correct, "attempted": rep.attempted, "failed": rep.failed,
		"errors": rep.errors, "end_to_end": rep.endToEnd, "virtual": rep.extra, "per_layer": rep.perLayer,
		"op_wall_ms": rep.opWallMs, "op_cpu_ms": rep.opCPUMs, "ref_ms": rep.refMs, "setup_s": rep.setupS,
	}
	path := filepath.Join(cfg.stateDir, "results", fmt.Sprintf("%s-seed%d-trace%v.json", cfg.workload, cfg.seed, cfg.trace))
	if err := writeJSON(path, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing results:", err)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	list := rep.endToEnd
	if cfg.trace {
		list = rep.perLayer
	}
	for _, m := range list {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
