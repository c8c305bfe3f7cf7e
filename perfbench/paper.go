package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rlnoc"
	"rlnoc/internal/topology"
	"rlnoc/internal/traffic"
)

// paperScale divides every Table II phase length evenly (pretrain 600k,
// warm-up 50k, measure 200k, drain 50k cycles), which keeps the paper's
// 3:1 pretrain:measure ratio and so the share of time spent pre-training.
// At 1/20 a suite takes about 7 s on two CPUs, so a run holds several.
const paperScale = 20

func paperConfig(r *runner) rlnoc.Config {
	cfg := rlnoc.DefaultConfig()
	cfg.PretrainCycles /= paperScale
	cfg.WarmupCycles /= paperScale
	cfg.MaxCycles /= paperScale
	cfg.DrainCycles /= paperScale
	cfg.SuiteWorkers = r.workers
	cfg.StepWorkers = 1
	cfg.Checks = "off"
	cfg.Seed = r.seed
	return cfg
}

// paperSetup times what one paper job does before its first simulated
// cycle: validating the config, building the topology and the session.
// RunSuite does this inside each job, out of the benchmark's reach, so
// the benchmark repeats it for one RL job.
func paperSetup(r *runner, tr *tracer) (float64, error) {
	start := time.Now()
	cfg := paperConfig(r)
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	sp := tr.begin("topology.FromConfig", "setup", noParent)
	_, err := topology.FromConfig(cfg)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin("core.NewSession", "setup", noParent)
	_, err = rlnoc.NewSession(cfg, rlnoc.RL)
	tr.end(sp)
	return time.Since(start).Seconds(), err
}

func probePaperSetup(r *runner) (float64, error) { return paperSetup(r, nil) }

type paperJob struct {
	bench  string
	scheme rlnoc.Scheme
}

func (j paperJob) id() string { return j.bench + "/" + string(j.scheme) }

// paperJobs lists the suite's jobs in RunSuite's order.
func paperJobs() []paperJob {
	var jobs []paperJob
	for _, b := range rlnoc.Benchmarks() {
		for _, sc := range rlnoc.Schemes() {
			jobs = append(jobs, paperJob{b, sc})
		}
	}
	return jobs
}

// runPaperSuite is one regeneration of Figs. 6-10: every scheme on every
// benchmark, then the five figures. Untraced it calls RunSuite; traced it
// runs the replica, which makes the same calls RunSuite makes, job by
// job, so the spans can split each job into its layers. Both must yield
// byte-identical results (the digest check).
func runPaperSuite(r *runner, tr *tracer) (*batch, error) {
	b := &batch{layers: map[string]float64{}}
	setup, err := paperSetup(r, tr)
	if err != nil {
		return nil, err
	}
	b.setup = setup
	cfg := paperConfig(r)
	jobs := paperJobs()

	var results []rlnoc.Result
	if tr == nil {
		start := time.Now()
		suite, err := rlnoc.RunSuite(cfg, nil)
		if err != nil {
			return nil, err
		}
		b.layers["rlnoc.runsuite_s"] = time.Since(start).Seconds()
		for _, j := range jobs {
			results = append(results, suite.Results[j.bench][j.scheme])
		}
	} else if results, err = replicaSuite(r, cfg, jobs, tr, b); err != nil {
		return nil, err
	}

	suite := &rlnoc.Suite{Benchmarks: rlnoc.Benchmarks(), Results: map[string]map[rlnoc.Scheme]rlnoc.Result{}}
	var modeDecisions int64
	var retx float64
	for i, j := range jobs {
		res := results[i]
		if suite.Results[j.bench] == nil {
			suite.Results[j.bench] = map[rlnoc.Scheme]rlnoc.Result{}
		}
		suite.Results[j.bench][j.scheme] = res
		b.attempted++
		if !res.Drained {
			b.problem("%s did not drain", j.id())
		}
		b.simCycles += res.ExecutionCycles
		b.latencies = append(b.latencies, res.MeanLatency)
		if j.scheme == rlnoc.RL {
			for _, n := range res.ModeDecisions {
				modeDecisions += n
			}
		}
		retx += res.RetransmittedPacketEq
	}
	b.layers["rl.mode_decisions"] = float64(modeDecisions)
	b.layers["stats.retx_packet_eq"] = retx
	b.digest = digestJSON(results)

	b.report = map[string]float64{}
	for _, f := range []struct {
		id   rlnoc.FigureID
		name string
	}{
		{rlnoc.Fig6Retransmission, "fig6_rl_retx_vs_crc"},
		{rlnoc.Fig7Speedup, "fig7_rl_speedup_vs_crc"},
		{rlnoc.Fig8Latency, "fig8_rl_latency_vs_crc"},
		{rlnoc.Fig9EnergyEfficiency, "fig9_rl_energy_eff_vs_crc"},
		{rlnoc.Fig10DynamicPower, "fig10_rl_dynpower_vs_crc"},
	} {
		fig, err := suite.Figure(f.id)
		if err != nil {
			return nil, err
		}
		if fig.Mean[rlnoc.CRC] == 0 {
			return nil, fmt.Errorf("%s: CRC mean is 0", f.id)
		}
		b.report[f.name] = fig.Mean[rlnoc.RL] / fig.Mean[rlnoc.CRC]
	}
	return b, nil
}

// replicaSuite runs the suite's jobs on a closed-loop pool of r.workers
// goroutines (a worker takes the next job when its current one ends),
// making the calls core.RunBenchmark makes, with a span around each.
func replicaSuite(r *runner, cfg rlnoc.Config, jobs []paperJob, tr *tracer, b *batch) ([]rlnoc.Result, error) {
	root := tr.begin("rlnoc.replica", "", noParent)
	results := make([]rlnoc.Result, len(jobs))
	cycles := make([]int64, len(jobs))
	events := make([]int, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				results[i], cycles[i], events[i], errs[i] = replicaJob(cfg, jobs[i], tr, root)
			}
		}()
	}
	wg.Wait()
	tr.end(root)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", jobs[i].id(), err)
		}
	}

	jobSecs := tr.seconds("rlnoc.job")
	busy := sum(jobSecs)
	pretrain := sum(tr.seconds("core.Pretrain"))
	wall := tr.seconds("rlnoc.replica")[0]
	b.layers["rlnoc.job_s_p50"] = median(jobSecs)
	b.layers["rlnoc.job_s_max"] = quantile(jobSecs, 1)
	b.layers["rlnoc.pool_busy_frac"] = busy / (float64(r.workers) * wall)
	b.layers["core.pretrain_s"] = pretrain
	b.layers["core.pretrain_share"] = pretrain / busy
	b.layers["core.measure_s"] = sum(tr.seconds("core.Measure"))
	b.layers["core.newsim_s"] = median(tr.seconds("core.NewSession"))
	b.layers["core.sim_cycles"] = float64(sumInts(cycles))
	b.layers["traffic.synth_s"] = sum(tr.seconds("traffic.BenchmarkTrace"))
	b.layers["traffic.events"] = float64(sumInts(events))
	b.layers["topology.fromconfig_s"] = median(tr.seconds("topology.FromConfig"))
	return results, nil
}

// replicaJob is core.RunBenchmark spelled out through the public API:
// the benchmark trace (seeded as RunBenchmark seeds it), a session,
// pre-training, then measurement.
func replicaJob(cfg rlnoc.Config, j paperJob, tr *tracer, root int32) (rlnoc.Result, int64, int, error) {
	id := j.id()
	js := tr.begin("rlnoc.job", id, root)
	defer tr.end(js)
	sp := tr.begin("traffic.BenchmarkTrace", id, js)
	events, err := rlnoc.BenchmarkTrace(cfg, j.bench, int64(cfg.MaxCycles), cfg.Seed*31+1300)
	tr.end(sp)
	if err != nil {
		return rlnoc.Result{}, 0, 0, err
	}
	sp = tr.begin("core.NewSession", id, js)
	sess, err := rlnoc.NewSession(cfg, j.scheme)
	tr.end(sp)
	if err != nil {
		return rlnoc.Result{}, 0, 0, err
	}
	sp = tr.begin("core.Pretrain", id, js)
	err = sess.Pretrain()
	tr.end(sp)
	if err != nil {
		return rlnoc.Result{}, 0, 0, err
	}
	sp = tr.begin("core.Measure", id, js)
	res, err := sess.Measure(events, j.bench)
	tr.end(sp)
	return res, sess.Network().Cycle(), len(events), err
}

// probePaperLayers counts trace synthesis's allocations alone,
// serially, so a concurrent job's are not mixed in: one pretrain
// segment's synthetic traffic plus one benchmark trace. It records no
// spans; the batches already time synthesis.
func probePaperLayers(r *runner, _ *tracer) (map[string]float64, error) {
	cfg := paperConfig(r)
	topo, err := topology.FromConfig(cfg)
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pre, err := traffic.Synthetic(topo, traffic.Uniform, 0.006, cfg.FlitsPerPacket,
		int64(cfg.PretrainCycles/6), cfg.Seed*31+901)
	if err != nil {
		return nil, err
	}
	bench, err := rlnoc.BenchmarkTrace(cfg, "canneal", int64(cfg.MaxCycles), cfg.Seed*31+1300)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	return map[string]float64{
		"traffic.allocs_per_event": float64(after.Mallocs-before.Mallocs) / float64(len(pre)+len(bench)),
	}, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func sumInts[T int | int64](xs []T) int64 {
	var s int64
	for _, x := range xs {
		s += int64(x)
	}
	return s
}
