package train

import (
	"testing"
	"time"

	"adapcc/internal/cluster"
	"adapcc/internal/health"
	"adapcc/internal/sim"
	"adapcc/internal/strategy"
	"adapcc/internal/topology"
)

// TestHealReadmitsRecoveredRank runs the full elastic-healing loop on the
// training stack: a rank's device hangs from the start, the coordinator
// declares it faulty after T_fault, the health monitor probes it (kernel
// probes fail while the hang lasts), and once the device recovers the rank
// passes probation and is readmitted into the training group — without the
// trainer's ReviveAfter readmit path (HealReadmit hands that to the
// monitor).
func TestHealReadmitsRecoveredRank(t *testing.T) {
	c, err := cluster.Homogeneous(topology.TransportRDMA, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	env, a := setupAdapCC(t, c)
	world := env.AllRanks()
	const victim = 3
	const recoverAt = 6 * time.Second

	// The device hangs until recoverAt: links stay healthy, so only the
	// monitor's kernel probe sees the fault — and sees it end.
	env.GPUs[victim].SetKernelStall(func(now sim.Time) time.Duration {
		if now < sim.Time(recoverAt) {
			return time.Duration(sim.Time(recoverAt) - now)
		}
		return 0
	})

	var faulted []int
	d, err := NewAdaptiveDriver(a, world, strategy.AllReduce, ViT().ParamBytes, nil,
		func(f []int) { faulted = append(faulted, f...) })
	if err != nil {
		t.Fatal(err)
	}
	m := d.EnableHealing(health.Options{
		Quarantine:    100 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond,
		ProbationK:    3,
		GiveUpAfter:   200, // never condemn: the hang is long but finite
		MaxQuarantine: 500 * time.Millisecond,
	})
	if d.EnableHealing(health.Options{}) != m || d.Healer() != a.Healer() {
		t.Fatal("EnableHealing is not idempotent")
	}

	const iterations = 30
	stats := runTraining(t, Config{
		Workload: ViT(), Env: env, Cluster: c, Driver: d,
		Iterations: iterations, Seed: 3,
		DeadAfter:   map[int]int{victim: 0},
		ReviveAfter: map[int]int{victim: 3},
		HealReadmit: true,
	})
	if len(stats.Iters) != iterations {
		t.Fatalf("completed %d/%d iterations", len(stats.Iters), iterations)
	}
	if len(faulted) == 0 || faulted[0] != victim {
		t.Fatalf("faulted = %v, want [%d ...]", faulted, victim)
	}
	if m.Healed() != 1 {
		t.Fatalf("healed = %d, want 1", m.Healed())
	}
	readmitted := d.Coordinator().Stats().ReadmittedRanks
	found := false
	for _, r := range readmitted {
		if r == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("ReadmittedRanks = %v, want to contain %d", readmitted, victim)
	}
	alive := false
	for _, r := range d.Alive() {
		if r == victim {
			alive = true
		}
	}
	if !alive {
		t.Fatalf("healed rank %d not in final group %v", victim, d.Alive())
	}
}

// TestHealReadmitWaitsForRecovery asserts the negative: with HealReadmit
// the trainer never readmits on its own, so a rank whose device stays hung
// for the whole run is excluded at the end even though ReviveAfter names
// it.
func TestHealReadmitWaitsForRecovery(t *testing.T) {
	c, err := cluster.Homogeneous(topology.TransportRDMA, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	env, a := setupAdapCC(t, c)
	world := env.AllRanks()
	const victim = 0

	// Hung forever: kernel probes always fail.
	env.GPUs[victim].SetKernelStall(func(now sim.Time) time.Duration {
		return time.Hour
	})

	d, err := NewAdaptiveDriver(a, world, strategy.AllReduce, ViT().ParamBytes, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := d.EnableHealing(health.Options{
		Quarantine:    100 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond,
		ProbationK:    3,
		GiveUpAfter:   5, // condemn quickly so the engine drains
		MaxQuarantine: 500 * time.Millisecond,
	})

	stats := runTraining(t, Config{
		Workload: ViT(), Env: env, Cluster: c, Driver: d,
		Iterations: 12, Seed: 5,
		DeadAfter:   map[int]int{victim: 0},
		ReviveAfter: map[int]int{victim: 3},
		HealReadmit: true,
	})
	if len(stats.Iters) != 12 {
		t.Fatalf("completed %d/12 iterations", len(stats.Iters))
	}
	if m.Healed() != 0 {
		t.Fatalf("hung rank healed %d times", m.Healed())
	}
	if m.Condemned() != 1 {
		t.Fatalf("condemned = %d, want 1", m.Condemned())
	}
	for _, r := range d.Alive() {
		if r == victim {
			t.Fatalf("hung rank %d readmitted into %v", victim, d.Alive())
		}
	}
}
