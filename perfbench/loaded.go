package main

import (
	"fmt"
	"runtime"
	"time"

	"rlnoc"
	"rlnoc/internal/network"
	"rlnoc/internal/topology"
	"rlnoc/internal/traffic"
)

// The loaded-32 workload: uniform traffic on a 32x32 mesh under the RL
// scheme, no pre-training, stepped by the benchmark's own cycle loop.
// At this rate the fabric never goes quiescent, so fast-forward skips
// nothing and the time is network.Step's.
const (
	loadedSize   = 32
	loadedRate   = 0.006 // packets per node per cycle
	loadedCycles = 2000  // injection window; the loop then drains
	// loadedSlice is how many cycles the 1-worker and 2-worker replays
	// behind network.step_workers_speedup each run.
	loadedSlice = 1500
)

func loadedConfig(r *runner, stepWorkers int) rlnoc.Config {
	cfg := rlnoc.DefaultConfig()
	cfg.Width, cfg.Height = loadedSize, loadedSize
	cfg.PretrainCycles = 0
	cfg.StepWorkers = stepWorkers
	cfg.Checks = "off"
	cfg.Seed = r.seed
	return cfg
}

// loadedSetup builds the fabric: config, topology and session.
func loadedSetup(r *runner, tr *tracer, stepWorkers int) (*rlnoc.Session, topology.Topology, error) {
	cfg := loadedConfig(r, stepWorkers)
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	sp := tr.begin("topology.FromConfig", "loaded", noParent)
	topo, err := topology.FromConfig(cfg)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("core.NewSession", "loaded", noParent)
	sess, err := rlnoc.NewSession(cfg, rlnoc.RL)
	tr.end(sp)
	return sess, topo, err
}

func probeLoadedSetup(r *runner) (float64, error) {
	start := time.Now()
	sess, _, err := loadedSetup(r, nil, r.workers)
	if err != nil {
		return 0, err
	}
	d := time.Since(start).Seconds()
	sess.Network().Close()
	return d, nil
}

func loadedTrace(r *runner, topo topology.Topology, cycles int64) ([]traffic.Event, error) {
	return traffic.Synthetic(topo, traffic.Uniform, loadedRate, rlnoc.DefaultConfig().FlitsPerPacket,
		cycles, r.seed*7919+17)
}

// loopStats is what the cycle loop observed.
type loopStats struct {
	cycles, skipped int64
	mallocs         uint64
}

// cycleLoop injects events through the source window and steps the
// network until every event is injected and the fabric drains, or the
// cycle cap passes. It mirrors the simulator's own measurement loop:
// an event waits while its source has window packets outstanding, and a
// quiescent fabric fast-forwards to the next injection.
func cycleLoop(net *network.Network, events []traffic.Event, window int, capCycle int64, tr *tracer) (loopStats, error) {
	nodes := net.Topology().Nodes()
	queues := make([][]traffic.Event, nodes)
	for _, e := range events {
		queues[e.Src] = append(queues[e.Src], e)
	}
	heads := make([]int, nodes)
	pending := len(events)
	root := tr.begin("network.loop", "loaded", noParent)
	defer tr.end(root)

	var st loopStats
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := net.Cycle()
	for net.Cycle() < capCycle {
		if pending > 0 && net.Quiescent() {
			target := capCycle
			for src, q := range queues {
				if h := heads[src]; h < len(q) && q[h].Cycle < target {
					target = q[h].Cycle
				}
			}
			sp := tr.begin("network.FastForwardTo", "", root)
			from := net.Cycle()
			to := net.FastForwardTo(target)
			tr.end(sp)
			st.skipped += to - from
			if to >= capCycle {
				break
			}
		}
		now := net.Cycle()
		sp := tr.begin("network.inject", "", root)
		for src, q := range queues {
			h := heads[src]
			for h < len(q) && q[h].Cycle <= now && net.SourceOutstanding(src) < window {
				if _, err := net.NewDataPacket(q[h].Src, q[h].Dst, q[h].Flits, now); err != nil {
					return st, err
				}
				h++
				pending--
			}
			heads[src] = h
		}
		tr.end(sp)
		sp = tr.begin("network.Step", "", root)
		err := net.Step()
		tr.end(sp)
		if err != nil {
			return st, err
		}
		if pending == 0 && net.Drained() {
			break
		}
	}
	runtime.ReadMemStats(&after)
	st.cycles = net.Cycle() - start
	st.mallocs = after.Mallocs - before.Mallocs
	return st, nil
}

// runLoaded32 is one loaded-32 run: set-up, trace synthesis, then the
// cycle loop until the fabric drains.
func runLoaded32(r *runner, tr *tracer) (*batch, error) {
	b := &batch{attempted: 1, layers: map[string]float64{}}
	start := time.Now()
	sess, topo, err := loadedSetup(r, tr, r.workers)
	if err != nil {
		return nil, err
	}
	b.setup = time.Since(start).Seconds()
	net := sess.Network()
	defer net.Close()

	sp := tr.begin("traffic.Synthetic", "loaded", noParent)
	events, err := loadedTrace(r, topo, loadedCycles)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	cfg := loadedConfig(r, r.workers)
	net.Stats().SetMeasuring(true)
	st, err := cycleLoop(net, events, cfg.SourceWindow, loadedCycles+int64(cfg.DrainCycles), tr)
	if err != nil {
		return nil, err
	}

	summary := net.Stats().Summarize()
	led := net.ConservationLedger()
	if !net.Drained() {
		b.problem("loaded-32 did not drain by cycle %d", net.Cycle())
		b.failed = 1
	}
	if !led.Balanced() {
		b.problem("conservation ledger unbalanced: %s", led)
	}
	b.simCycles = st.cycles
	b.latencies = []float64{summary.MeanLatency}
	b.digest = digestJSON([]any{summary, net.Cycle(), net.LastDeliveryCycle(), led})

	b.layers["network.allocs_per_cycle"] = float64(st.mallocs) / float64(st.cycles)
	b.layers["network.ff_skipped_frac"] = float64(st.skipped) / float64(st.cycles)
	b.layers["network.flits_delivered"] = float64(summary.FlitsDelivered)
	if led.Balanced() {
		b.layers["network.ledger_balanced"] = 1
	}
	b.layers["stats.retx_packet_eq"] = net.Stats().RetransmittedPacketEquivalents(cfg.FlitsPerPacket)
	b.layers["core.sim_cycles"] = float64(net.Cycle())
	b.layers["traffic.events"] = float64(len(events))
	if tr != nil {
		steps := tr.seconds("network.Step")
		b.layers["network.step_ns_p50"] = quantile(steps, 0.5) * 1e9
		b.layers["network.step_ns_p99"] = quantile(steps, 0.99) * 1e9
		b.layers["network.inject_ns"] = median(tr.seconds("network.inject")) * 1e9
		b.layers["traffic.synth_s"] = sum(tr.seconds("traffic.Synthetic"))
		b.layers["core.newsim_s"] = median(tr.seconds("core.NewSession"))
		b.layers["topology.fromconfig_s"] = median(tr.seconds("topology.FromConfig"))
	}
	return b, nil
}

// probeLoadedLayers replays the first loadedSlice cycles of the same
// trace at 1 and at r.workers Step workers (the parallel Step's gain),
// and counts the trace synthesis's allocations per event. It records no
// spans; the batches already time these layers.
func probeLoadedLayers(r *runner, _ *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	topo, err := topology.FromConfig(loadedConfig(r, 1))
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events, err := loadedTrace(r, topo, loadedSlice)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	out["traffic.allocs_per_event"] = float64(after.Mallocs-before.Mallocs) / float64(len(events))

	if r.workers < 2 {
		fmt.Printf("notice: network.step_workers_speedup skipped: %d CPU(s), need 2\n", runtime.NumCPU())
		return out, nil
	}
	replay := func(workers int) (float64, error) {
		sess, _, err := loadedSetup(r, nil, workers)
		if err != nil {
			return 0, err
		}
		defer sess.Network().Close()
		start := time.Now()
		if _, err := cycleLoop(sess.Network(), events, rlnoc.DefaultConfig().SourceWindow, loadedSlice, nil); err != nil {
			return 0, err
		}
		return time.Since(start).Seconds(), nil
	}
	one, err := replay(1)
	if err != nil {
		return nil, err
	}
	many, err := replay(r.workers)
	if err != nil {
		return nil, err
	}
	out["network.step_workers_speedup"] = one / many
	return out, nil
}
