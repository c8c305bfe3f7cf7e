// Command nocsim runs one simulation: a PARSEC-like benchmark (or a trace
// file, or a synthetic pattern) under one fault-tolerant scheme, printing
// the headline metrics.
//
// Examples:
//
//	nocsim -scheme rl -benchmark canneal
//	nocsim -scheme crc -pattern uniform -rate 0.005
//	nocsim -scheme arq-ecc -trace trace.txt -config cfg.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"rlnoc/internal/config"
	"rlnoc/internal/core"
	"rlnoc/internal/eventlog"
	"rlnoc/internal/invariant"
	"rlnoc/internal/network"
	"rlnoc/internal/stats"
	"rlnoc/internal/topology"
	"rlnoc/internal/traffic"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nocsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		schemeFlag = flag.String("scheme", "rl", "fault-tolerant scheme: crc|arq-ecc|dt|rl|qroute")
		benchFlag  = flag.String("benchmark", "", "PARSEC-like benchmark name (see cmd/trafficgen -list)")
		traceFlag  = flag.String("trace", "", "trace file to run (overrides -benchmark)")
		pattern    = flag.String("pattern", "", "synthetic pattern (uniform|transpose|...) instead of a benchmark")
		rate       = flag.Float64("rate", 0.004, "synthetic injection rate, packets/node/cycle")
		cfgPath    = flag.String("config", "", "JSON config file (default: paper Table II)")
		seed       = flag.Int64("seed", 0, "override random seed (0 = keep config seed)")
		errRate    = flag.Float64("error-rate", -1, "override base timing-error rate (-1 = keep config)")
		routing    = flag.String("routing", "", "routing algorithm: xy|yx|westfirst (default: config)")
		hardFault  = flag.String("hard-faults", "", "permanent-failure schedule, e.g. 5000:l12.east,8000:r3")
		checksFlag = flag.String("checks", "", "runtime invariant checks: off|all|ledger,credits,watchdog (default: RLNOC_CHECKS env)")
		topoFlag   = flag.String("topology", "", "fabric topology: mesh|torus (default: config)")
		small      = flag.Bool("small", false, "use the 4x4 quick configuration")
		stepW      = flag.Int("step-workers", 0, "per-Step shard workers, deterministic (0 = config/env, 1 = sequential)")
		verbose    = flag.Bool("v", false, "print the error-control breakdown")
		policy     = flag.Int("policy", 0, "print the N most-visited RL states with their Q-rows")
		savePolicy = flag.String("save-policy", "", "write the trained RL Q-tables to a file after the run")
		loadPolicy = flag.String("load-policy", "", "preload RL Q-tables (skips pre-training)")
		eventLog   = flag.String("eventlog", "", "record flit/packet events of the testing phase to a file")
		analyze    = flag.String("analyze", "", "analyze a recorded event log and exit")
		qAlpha     = flag.Float64("qroute-alpha", 0, "override the qroute learning rate (0 = keep config)")
		qEpsilon   = flag.Float64("qroute-epsilon", -1, "override the qroute exploration epsilon (-1 = keep config)")
		snapEvery  = flag.Int64("snapshot-every", 0, "write a checkpoint every N cycles of the measured phase (0 = off)")
		snapDir    = flag.String("snapshot-dir", "", "checkpoint directory (default: RLNOC_SNAPSHOT_DIR env, else 'snapshots')")
		restore    = flag.String("restore", "", "resume from a checkpoint file and finish the run (ignores workload flags)")
		progress   = flag.Duration("progress", 0, "print progress to stderr at this wall-clock interval, e.g. 5s (0 = off)")
	)
	flag.Parse()

	if *restore != "" {
		return runRestore(*restore, *stepW, *verbose, *progress)
	}

	if *analyze != "" {
		f, err := os.Open(*analyze)
		if err != nil {
			return err
		}
		defer f.Close()
		events, err := eventlog.Read(f)
		if err != nil {
			return err
		}
		fmt.Print(eventlog.Analyze(events).Format())
		return nil
	}

	cfg := config.Default()
	if *small {
		cfg = config.Small()
	}
	if *cfgPath != "" {
		var err error
		if cfg, err = config.Load(*cfgPath); err != nil {
			return err
		}
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *errRate >= 0 {
		cfg.Fault.BaseErrorRate = *errRate
	}
	if *routing != "" {
		cfg.Routing = config.Routing(*routing)
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	if *topoFlag != "" {
		cfg.Topology = *topoFlag
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	if *stepW != 0 {
		cfg.StepWorkers = *stepW
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	if *hardFault != "" {
		cfg.HardFaults = *hardFault
	}
	if *checksFlag != "" {
		cfg.Checks = *checksFlag
	}
	if *qAlpha != 0 {
		cfg.QRoute.Alpha = *qAlpha
	}
	if *qEpsilon >= 0 {
		cfg.QRoute.Epsilon = *qEpsilon
	}
	if *hardFault != "" || *checksFlag != "" {
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	scheme, err := core.ParseScheme(*schemeFlag)
	if err != nil {
		return err
	}

	var events []traffic.Event
	label := ""
	switch {
	case *traceFlag != "":
		f, err := os.Open(*traceFlag)
		if err != nil {
			return err
		}
		events, err = traffic.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		label = *traceFlag
	case *pattern != "":
		topo, err := topology.FromConfig(cfg)
		if err != nil {
			return err
		}
		events, err = traffic.Synthetic(topo, traffic.Pattern(*pattern), *rate,
			cfg.FlitsPerPacket, int64(cfg.MaxCycles), cfg.Seed+7)
		if err != nil {
			return err
		}
		label = *pattern
	default:
		bench := *benchFlag
		if bench == "" {
			bench = "canneal"
		}
		b, err := traffic.BenchmarkByName(bench)
		if err != nil {
			return err
		}
		topo, err := topology.FromConfig(cfg)
		if err != nil {
			return err
		}
		events, err = b.Trace(topo, int64(cfg.MaxCycles), cfg.FlitsPerPacket, cfg.Seed*31+1300)
		if err != nil {
			return err
		}
		label = bench
	}

	sim, err := core.NewSim(cfg, scheme)
	if err != nil {
		return err
	}
	if *progress > 0 {
		attachProgress(sim, *progress)
	}
	if *loadPolicy != "" {
		rlc, ok := sim.Controller().(*core.RLController)
		if !ok {
			return fmt.Errorf("-load-policy requires -scheme rl")
		}
		f, err := os.Open(*loadPolicy)
		if err != nil {
			return err
		}
		err = rlc.LoadPolicy(f)
		f.Close()
		if err != nil {
			return err
		}
	} else if err := sim.Pretrain(); err != nil {
		return err
	}
	if *eventLog != "" {
		f, err := os.Create(*eventLog)
		if err != nil {
			return err
		}
		defer f.Close()
		l := eventlog.New(f)
		sim.Network().SetEventLog(l)
		defer l.Flush()
	}
	if *snapEvery > 0 {
		dir, _ := config.ResolveString(config.EnvSnapshotDir, *snapDir, "snapshots")
		sim.SetSnapshotPolicy(dir, *snapEvery)
	}
	res, err := sim.Measure(events, label)
	if err != nil {
		var iv *invariant.Error
		if errors.As(err, &iv) {
			fmt.Fprint(os.Stderr, iv.Report())
			bisectInvariant(sim)
		}
		return err
	}

	printResult(res, *verbose)
	if net := sim.Network(); net.QRouteEnabled() {
		fmt.Printf("qroute telemetry  %s\n", net.QRouteTelemetry().Format())
	}
	if cfg.HardFaults != "" {
		printFaultReport(sim.Network())
	}
	if *policy > 0 {
		if rlc, ok := sim.Controller().(*core.RLController); ok {
			fmt.Print(rlc.PolicyDump(*policy))
		}
	}
	if *savePolicy != "" {
		rlc, ok := sim.Controller().(*core.RLController)
		if !ok {
			return fmt.Errorf("-save-policy requires -scheme rl")
		}
		f, err := os.Create(*savePolicy)
		if err != nil {
			return err
		}
		if err := rlc.SavePolicy(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "saved RL policy to %s\n", *savePolicy)
	}
	return nil
}

// attachProgress wires a stderr progress reporter onto the simulation's
// cycle loops. The reported cycle is the simulated-cycle counter, from
// which the derived cycles/s figure is computed.
func attachProgress(sim *core.Sim, every time.Duration) {
	start := time.Now()
	lastT, lastC := start, sim.Network().Cycle()
	sim.SetProgress(every, func(cycle int64) {
		now := time.Now()
		rate := float64(cycle-lastC) / now.Sub(lastT).Seconds()
		fmt.Fprintf(os.Stderr, "progress: cycle %d (%.1fs elapsed, %.3g cycles/s)\n",
			cycle, now.Sub(start).Seconds(), rate)
		lastT, lastC = now, cycle
	})
}

// runRestore resumes a checkpoint written by -snapshot-every: the file
// carries config, scheme, trace and complete state, so only host-local
// knobs (-step-workers — bit-identical by construction) still apply.
func runRestore(path string, stepW int, verbose bool, progress time.Duration) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	sim, err := core.RestoreSimTuned(f, func(cfg *config.Config) {
		if stepW != 0 {
			cfg.StepWorkers = stepW
		}
	})
	f.Close()
	if err != nil {
		return err
	}
	defer sim.Close()
	if progress > 0 {
		attachProgress(sim, progress)
	}
	fmt.Fprintf(os.Stderr, "resumed %s at cycle %d\n", path, sim.Network().Cycle())
	res, err := sim.ResumeMeasure()
	if err != nil {
		var iv *invariant.Error
		if errors.As(err, &iv) {
			fmt.Fprint(os.Stderr, iv.Report())
		}
		return err
	}
	printResult(res, verbose)
	if net := sim.Network(); net.QRouteEnabled() {
		fmt.Printf("qroute telemetry  %s\n", net.QRouteTelemetry().Format())
	}
	if sim.Network().DeadRouters() > 0 || sim.Network().UnreachablePairs() > 0 {
		printFaultReport(sim.Network())
	}
	return nil
}

// bisectInvariant is the checkpoint-assisted failure workflow: when an
// invariant fires mid-run and checkpoints were being written, replay
// from the latest one with flit-level event capture, so the failure
// reproduces within one checkpoint interval instead of from cycle zero.
func bisectInvariant(sim *core.Sim) {
	last := sim.LastSnapshotPath()
	if last == "" {
		return
	}
	elogPath := last + ".replay.elog"
	fmt.Fprintf(os.Stderr, "replaying from %s with event capture -> %s\n", last, elogPath)
	ef, err := os.Create(elogPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bisect:", err)
		return
	}
	_, rerr := core.ReplayFromSnapshot(last, ef)
	ef.Close()
	if rerr != nil {
		fmt.Fprintf(os.Stderr, "replay reproduced the failure: %v\nanalyze with: nocsim -analyze %s\n", rerr, elogPath)
	} else {
		fmt.Fprintln(os.Stderr, "replay completed clean (failure did not reproduce from the checkpoint)")
	}
}

// printFaultReport summarizes the damage after a hard-faulted run: what
// died, what became unreachable, where discarded flits went, and the
// packet-conservation ledger that proves nothing was lost untallied.
func printFaultReport(net *network.Network) {
	fmt.Printf("dead routers      %d\n", net.DeadRouters())
	fmt.Printf("unreachable pairs %d\n", net.UnreachablePairs())
	counts := net.Stats().DropCounts()
	fmt.Printf("drops            ")
	for r := stats.DropReason(0); r < stats.NumDropReasons; r++ {
		fmt.Printf(" %s=%d", r, counts[r])
	}
	fmt.Println()
	fmt.Printf("ledger            %s\n", net.ConservationLedger())
	fmt.Printf("time-to-recover   %s\n", net.RecoveryLog().Format())
}

func printResult(r core.Result, verbose bool) {
	fmt.Printf("scheme            %s\n", r.Scheme)
	fmt.Printf("workload          %s\n", r.Benchmark)
	fmt.Printf("drained           %v\n", r.Drained)
	fmt.Printf("execution         %d cycles\n", r.ExecutionCycles)
	fmt.Printf("mean E2E latency  %.2f cycles\n", r.MeanLatency)
	fmt.Printf("latency p50/p95/p99/max  %d/%d/%d/%d cycles\n",
		r.Summary.P50Latency, r.Summary.P95Latency, r.Summary.P99Latency, r.Summary.MaxLatency)
	fmt.Printf("flits delivered   %d\n", r.FlitsDelivered)
	fmt.Printf("retransmit (pkt)  %.1f\n", r.RetransmittedPacketEq)
	fmt.Printf("dynamic power     %.4f W\n", r.DynamicPowerW)
	fmt.Printf("energy            %.1f nJ (dynamic %.1f, static %.1f)\n",
		r.TotalPJ/1e3, r.DynamicPJ/1e3, r.StaticPJ/1e3)
	fmt.Printf("energy efficiency %.2f flits/uJ\n", r.EnergyEfficiency)
	fmt.Printf("temperature       mean %.1f C, max %.1f C\n", r.MeanTempC, r.MaxTempC)
	if verbose {
		s := r.Summary
		fmt.Printf("errors injected   %d\n", s.ErrorsInjected)
		fmt.Printf("ecc corrected     %d\n", s.ECCCorrections)
		fmt.Printf("ecc detected      %d\n", s.ECCDetections)
		fmt.Printf("crc failures      %d\n", s.CRCFailures)
		fmt.Printf("source retx       %d\n", s.SourceRetransmissions)
		fmt.Printf("link retx         %d\n", s.LinkRetransmissions)
		fmt.Printf("pre-retx          %d\n", s.PreRetransmissions)
		fmt.Printf("packets           %d injected, %d delivered\n", s.PacketsInjected, s.PacketsDelivered)
		fmt.Printf("mode decisions    %v\n", r.ModeDecisions)
		fmt.Printf("mode mean reward  %.2f %.2f %.2f %.2f\n",
			r.ModeMeanReward[0], r.ModeMeanReward[1], r.ModeMeanReward[2], r.ModeMeanReward[3])
	}
}
