package core

// Checkpoint/restore equivalence (DESIGN.md §15): a run that is
// snapshotted mid-measurement and resumed in a fresh Sim must finish
// with byte-identical results — across topologies, learned schemes,
// StepWorkers counts on both sides of the restore, and with the restore
// point inside an active hard-fault kill schedule.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/traffic"
)

// snapConfig is a fast 4x4 run whose hard-fault schedule (a link kill
// then a router kill) lands inside the measured phase, so checkpoints
// straddle the kill boundary.
func snapConfig(topo string) config.Config {
	cfg := config.Small()
	cfg.Topology = topo
	if topo == config.TopologyTorus {
		// qroute on a torus needs escape/adaptive x dateline VC classes.
		cfg.VCsPerPort = 8
	}
	cfg.PretrainCycles = 800
	cfg.WarmupCycles = 300
	cfg.MaxCycles = 4000
	cfg.DrainCycles = 12000
	cfg.Fault.BaseErrorRate = 0.002
	cfg.HardFaults = "2600:l5.east,4200:r10"
	cfg.Seed = 20260808
	return cfg
}

func snapTrace(t *testing.T, cfg config.Config) []traffic.Event {
	t.Helper()
	topo, err := topologyOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := traffic.Synthetic(topo, traffic.Uniform, 0.004, cfg.FlitsPerPacket,
		int64(cfg.MaxCycles), cfg.Seed*31+1300)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// fingerprint renders everything the acceptance criteria compare: the
// serialized Result and the closing conservation ledger.
func fingerprint(t *testing.T, res Result, sim *Sim) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n" + sim.Network().ConservationLedger().String()
}

// runFull runs pretrain+measure at the given worker count, optionally
// checkpointing every snapEvery cycles into dir.
func runFull(t *testing.T, cfg config.Config, scheme Scheme, events []traffic.Event,
	workers int, dir string, snapEvery int64) string {
	t.Helper()
	cfg.StepWorkers = workers
	sim, err := NewSim(cfg, scheme)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Pretrain(); err != nil {
		t.Fatal(err)
	}
	if snapEvery > 0 {
		sim.SetSnapshotPolicy(dir, snapEvery)
	}
	res, err := sim.Measure(events, "snaptest")
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(t, res, sim)
}

// snapshotCycles lists the checkpoint files in dir with their cycle
// numbers, ascending.
func snapshotCycles(t *testing.T, dir string) (paths []string, cycles []int64) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "snapshot-*.rlns"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no snapshots written in %s: %v", dir, err)
	}
	sort.Strings(matches)
	for _, m := range matches {
		var c int64
		if _, err := fmt.Sscanf(filepath.Base(m), "snapshot-%d.rlns", &c); err != nil {
			t.Fatalf("unparseable snapshot name %s", m)
		}
		paths = append(paths, m)
		cycles = append(cycles, c)
	}
	return paths, cycles
}

// resumeFrom restores path at the given worker count and runs the phase
// to completion.
func resumeFrom(t *testing.T, path string, workers int) string {
	t.Helper()
	sim, err := RestoreSimFile(path)
	if workers > 0 {
		f, ferr := os.Open(path)
		if ferr != nil {
			t.Fatal(ferr)
		}
		if sim != nil {
			sim.Close()
		}
		sim, err = RestoreSimTuned(f, func(cfg *config.Config) { cfg.StepWorkers = workers })
		f.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	res, err := sim.ResumeMeasure()
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(t, res, sim)
}

// TestSnapshotRestoreEquivalence is the acceptance matrix: mesh and
// torus, rl, qroute and the trained dt, snapshot written at workers W
// and restored at a different count, including a restore point between
// the two scheduled hard-fault kills.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	type combo struct {
		topo         string
		scheme       Scheme
		runW, resumW int
	}
	combos := []combo{
		{"mesh", SchemeRL, 1, 4},
		{"mesh", SchemeQRoute, 2, 1},
		{"torus", SchemeRL, 4, 2},
		{"torus", SchemeQRoute, 1, 2},
		{"mesh", SchemeDT, 1, 2},
		{"torus", SchemeDT, 2, 1},
	}
	if testing.Short() {
		combos = combos[:1]
	}
	for _, c := range combos {
		c := c
		t.Run(fmt.Sprintf("%s-%s-w%dto%d", c.topo, c.scheme, c.runW, c.resumW), func(t *testing.T) {
			t.Parallel()
			cfg := snapConfig(c.topo)
			kill1, kill2 := int64(2600), int64(4200)
			if c.scheme == SchemeDT {
				// The tree trains on whole control epochs (1000 cycles),
				// so dt needs a longer pretrain; the kills move with it.
				cfg.PretrainCycles = 3000
				kill1, kill2 = 4800, 6400
				cfg.HardFaults = fmt.Sprintf("%d:l5.east,%d:r10", kill1, kill2)
			}
			events := snapTrace(t, cfg)

			want := runFull(t, cfg, c.scheme, events, 1, "", 0)

			dir := t.TempDir()
			got := runFull(t, cfg, c.scheme, events, c.runW, dir, 400)
			if got != want {
				t.Fatalf("snapshotting perturbed the run:\n got %s\nwant %s", got, want)
			}

			paths, cycles := snapshotCycles(t, dir)
			// One restore point between the two kills — dead link
			// applied, router kill still pending — and one after both,
			// plus the earliest checkpoint.
			var midKill, afterKill string
			for i, cyc := range cycles {
				if cyc > kill1 && cyc < kill2 && midKill == "" {
					midKill = paths[i]
				}
				if cyc > kill2 && afterKill == "" {
					afterKill = paths[i]
				}
			}
			if midKill == "" || afterKill == "" {
				t.Fatalf("kill schedule not straddled by checkpoints (cycles %v)", cycles)
			}
			for name, p := range map[string]string{
				"first": paths[0], "mid-kill": midKill, "after-kill": afterKill,
			} {
				if got := resumeFrom(t, p, c.resumW); got != want {
					t.Errorf("%s restore diverged:\n got %s\nwant %s", name, got, want)
				}
			}
		})
	}
}

// TestSnapshotDTWhileCollecting checkpoints the dt controller while it
// is still collecting training samples — the state it has throughout
// pre-training — by measuring without Pretrain. A run resumed from a
// mid-run checkpoint must end in byte-identical state to the
// uninterrupted run: same Result, same sampler position, same samples,
// and the same tree once both finish training.
func TestSnapshotDTWhileCollecting(t *testing.T) {
	cfg := snapConfig("mesh")
	events := snapTrace(t, cfg)
	finalState := func(sim *Sim, res Result) (string, []byte) {
		t.Helper()
		fp := fingerprint(t, res, sim)
		if err := sim.Controller().(*DTController).FinishTraining(); err != nil {
			t.Fatal(err)
		}
		state, err := sim.snapBytes()
		if err != nil {
			t.Fatal(err)
		}
		return fp, state
	}

	sim, err := NewSim(cfg, SchemeDT)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	dir := t.TempDir()
	sim.SetSnapshotPolicy(dir, 500)
	res, err := sim.Measure(events, "collect")
	if err != nil {
		t.Fatal(err)
	}
	if !sim.Controller().(*DTController).collecting {
		t.Fatal("dt controller stopped collecting without Pretrain")
	}
	wantFP, wantState := finalState(sim, res)

	paths, _ := snapshotCycles(t, dir)
	restored, err := RestoreSimFile(paths[len(paths)/2])
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	res, err = restored.ResumeMeasure()
	if err != nil {
		t.Fatal(err)
	}
	gotFP, gotState := finalState(restored, res)
	if gotFP != wantFP {
		t.Fatalf("resumed collecting run diverged:\n got %s\nwant %s", gotFP, wantFP)
	}
	if !bytes.Equal(gotState, wantState) {
		t.Fatalf("resumed collecting run ends in a different state (%d vs %d bytes)", len(gotState), len(wantState))
	}
}

// TestSnapshotIdempotent re-snapshots a restored sim without stepping it
// and requires the bytes to match the original checkpoint — the
// serializer covers exactly the state the restorer reproduces.
func TestSnapshotIdempotent(t *testing.T) {
	for _, scheme := range []Scheme{SchemeQRoute, SchemeDT} {
		cfg := snapConfig("mesh")
		if scheme == SchemeDT {
			cfg.PretrainCycles = 3000 // whole control epochs to train on
		}
		events := snapTrace(t, cfg)
		dir := t.TempDir()
		runFull(t, cfg, scheme, events, 2, dir, 700)
		paths, _ := snapshotCycles(t, dir)
		orig, err := os.ReadFile(paths[len(paths)/2])
		if err != nil {
			t.Fatal(err)
		}
		sim, err := RestoreSim(bytes.NewReader(orig))
		if err != nil {
			t.Fatal(err)
		}
		again, err := sim.snapBytes()
		sim.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(orig, again) {
			t.Fatalf("%s: re-snapshot differs: %d vs %d bytes", scheme, len(orig), len(again))
		}
	}
}

// FuzzSnapshotRoundTrip drives short runs from fuzzed knobs and checks
// the restore→re-snapshot fixpoint on the final checkpoint.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(1), false)
	f.Add(int64(20260808), uint8(2), true)
	f.Add(int64(-7), uint8(4), false)
	f.Fuzz(func(t *testing.T, seed int64, workers uint8, qroute bool) {
		cfg := config.Small()
		cfg.PretrainCycles = 0
		cfg.WarmupCycles = 100
		cfg.MaxCycles = 600
		cfg.DrainCycles = 3000
		cfg.Fault.BaseErrorRate = 0.002
		cfg.HardFaults = "300:l5.east"
		cfg.Seed = seed
		cfg.StepWorkers = int(workers%4) + 1
		scheme := SchemeRL
		if qroute {
			scheme = SchemeQRoute
		}
		topo, err := topologyOf(cfg)
		if err != nil {
			t.Skip()
		}
		events, err := traffic.Synthetic(topo, traffic.Uniform, 0.003, cfg.FlitsPerPacket, 600, seed)
		if err != nil {
			t.Skip()
		}
		sim, err := NewSim(cfg, scheme)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		dir := t.TempDir()
		sim.SetSnapshotPolicy(dir, 250)
		if _, err := sim.Measure(events, "fuzz"); err != nil {
			t.Fatal(err)
		}
		last := sim.LastSnapshotPath()
		if last == "" {
			t.Skip("run too short to checkpoint")
		}
		orig, err := os.ReadFile(last)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreSim(bytes.NewReader(orig))
		if err != nil {
			t.Fatal(err)
		}
		defer restored.Close()
		again, err := restored.snapBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(orig, again) {
			t.Fatalf("round-trip not a fixpoint: %d vs %d bytes", len(orig), len(again))
		}
	})
}
