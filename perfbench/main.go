// Command perfbench is rlnoc's end-to-end benchmark. It times the paths a
// user runs — the paper's figure suite, a loaded 32x32 fabric, and a
// supervised chaos campaign — checks their outputs, and, in a separate
// traced run, attributes the time to the modules it calls into.
//
// Usage (from the repository root, which the build script expects):
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: the correctness
// verdict, the attempted and failed operation counts, and the metrics —
// the end-to-end set untraced, the per-layer set traced. NOTES.md
// explains each workload and metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"rlnoc/internal/config"
)

// workDir holds everything a run writes (campaign directories, snapshot
// probes, span files). It is relative to the working directory, which
// is the checkout root, and is listed in the root .gitignore.
const workDir = ".bench_build"

// minSetupSamples is how many set-ups a run times at least; set-up is
// milliseconds long, so one sample per batch is too few for a median.
const minSetupSamples = 9

// minBatches is the fewest untraced batches a run makes, so that its
// medians are medians.
const minBatches = 3

// overrun stops a run early, after its minimum, once it has taken this
// many times --seconds, which bounds a run's length on a slowed host.
const overrun = 1.5

type metric struct{ name, unit string }

// endToEnd is the bounded set: what a user of the simulator sees, on
// every workload, never 0, and steady enough across runs on a shared
// 2-CPU host to carry a bound (NOTES.md gives the definitions).
var endToEnd = []metric{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"ok_frac", "ratio"},
}

// reportOnly are end-to-end results that exist on one workload only, can
// be 0, or vary across seeds or runs by more than a bound could absorb.
// They are printed in the report of every run and repeated in the
// per-layer set, where 0 means the workload has no such result.
var reportOnly = []metric{
	{"sim_cycles_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"sim_latency_cycles", "cycles"},
	{"retained_mb_per_batch", "MB"},
	{"fail_frac", "ratio"},
	{"fig6_rl_retx_vs_crc", "ratio"},
	{"fig7_rl_speedup_vs_crc", "ratio"},
	{"fig8_rl_latency_vs_crc", "ratio"},
	{"fig9_rl_energy_eff_vs_crc", "ratio"},
	{"fig10_rl_dynpower_vs_crc", "ratio"},
	{"job_run_p50_s", "s"},
	{"job_run_p90_s", "s"},
}

// layers are the modules the benchmark calls into; each gets a self-time
// metric from the traced run.
var layers = []string{"rlnoc", "core", "traffic", "network", "snap", "campaign", "topology"}

// perLayer is the traced run's metric set. A layer a workload does not
// exercise reports 0.
var perLayer = func() []metric {
	ms := []metric{
		{"rlnoc.runsuite_s", "s"},
		{"rlnoc.job_s_p50", "s"},
		{"rlnoc.job_s_max", "s"},
		{"rlnoc.pool_busy_frac", "ratio"},
		{"core.pretrain_s", "s"},
		{"core.pretrain_share", "ratio"},
		{"core.measure_s", "s"},
		{"core.newsim_s", "s"},
		{"core.sim_cycles", "count"},
		{"traffic.synth_s", "s"},
		{"traffic.events", "count"},
		{"traffic.allocs_per_event", "count"},
		{"network.step_ns_p50", "ns"},
		{"network.step_ns_p99", "ns"},
		{"network.inject_ns", "ns"},
		{"network.allocs_per_cycle", "count"},
		{"network.ff_skipped_frac", "ratio"},
		{"network.step_workers_speedup", "ratio"},
		{"network.flits_delivered", "count"},
		{"network.ledger_balanced", "count"},
		{"snap.checkpoints", "count"},
		{"snap.bytes_per_checkpoint", "B"},
		{"snap.save_ms", "ms"},
		{"snap.restore_ms", "ms"},
		{"campaign.attempts_per_job", "count"},
		{"campaign.useful_attempt_frac", "ratio"},
		{"campaign.recovered_frac", "ratio"},
		{"campaign.journal_records", "count"},
		{"campaign.open_s", "s"},
		{"topology.fromconfig_s", "s"},
		{"rl.mode_decisions", "count"},
		{"stats.retx_packet_eq", "count"},
	}
	ms = append(ms, reportOnly...)
	for _, l := range layers {
		ms = append(ms, metric{l + ".self_s", "s"})
	}
	return append(ms, metric{"trace.overhead_s", "s"}, metric{"trace.spans", "count"})
}()

// batch is one closed-loop pass over a workload's fixed job list.
type batch struct {
	wall, setup float64 // host seconds
	allocBytes  uint64
	peakRSS     float64 // MB
	heapAfter   uint64  // live heap after the batch and a collection
	// simCycles sums Result.ExecutionCycles over completed jobs: the
	// measured-phase simulated cycles of the final results.
	simCycles         int64
	attempted, failed int
	latencies         []float64 // simulated mean latency of each completed job
	digest            string    // hash of the jobs' results, in job order
	problems          []string  // failed output checks
	notes             []string  // printed once per run
	report            map[string]float64
	layers            map[string]float64
	spans             *tracer
	cleanup           func()  // runs after the batch is timed
	steal             float64 // share of the host's CPU time stolen by the hypervisor
}

func (b *batch) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// runner carries a run's fixed settings.
type runner struct {
	seed    int64
	seconds int
	trace   bool
	workers int // job pool and Step worker count: min(2, host CPUs)
	dir     string
	nextDir int
}

// freshDir returns a new empty directory under the run's work directory.
func (r *runner) freshDir(prefix string) (string, error) {
	r.nextDir++
	d := filepath.Join(r.dir, fmt.Sprintf("%s-%d", prefix, r.nextDir))
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// workload is one named benchmark input.
//   - batchSeconds is a batch's typical wall time on a 2-CPU host; it
//     fixes how many batches a run of --seconds makes.
//   - run executes one batch; a non-nil tracer records spans around every
//     call into the program.
//   - probeSetup times the workload's set-up alone.
//   - probeLayers measures, once per traced run and outside the timed
//     batches, the layer values a batch cannot: serial allocation counts
//     and single-call timings.
type workload struct {
	name         string
	batchSeconds float64
	run          func(r *runner, tr *tracer) (*batch, error)
	probeSetup   func(r *runner) (float64, error)
	probeLayers  func(r *runner, tr *tracer) (map[string]float64, error)
}

var workloads = []workload{
	{"paper-suite", 7, runPaperSuite, probePaperSetup, probePaperLayers},
	{"loaded-32", 3, runLoaded32, probeLoadedSetup, probeLoadedLayers},
	{"chaos-campaign", 2, runChaos, probeChaosSetup, probeChaosLayers},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "paper-suite | loaded-32 | chaos-campaign | all")
		seed    = flag.Int64("seed", 1, "workload seed; every input is derived from it")
		seconds = flag.Int("seconds", 30, "measurement time per workload")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0|1")
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		return fmt.Errorf("unknown --workload %q", *name)
	}

	cpus := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > cpus {
		runtime.GOMAXPROCS(cpus)
	}
	r := &runner{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: min(2, cpus),
		dir: filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid()))}
	pinEnv(r.workers)
	defer os.RemoveAll(r.dir)

	env := map[string]any{"host_cpus": cpus, "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "seed": r.seed, "workers": r.workers,
		"seconds": r.seconds, "trace": *trace}
	for _, w := range chosen {
		env["workload"] = w.name
		line, err := r.measure(w, env)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Println(line)
	}
	return nil
}

// pinEnv overrides the simulator's environment knobs so an exported
// variable cannot change what a run measures. Every config the benchmark
// builds also sets these fields explicitly, which takes precedence.
func pinEnv(workers int) {
	os.Setenv(config.EnvChecks, "off")
	os.Setenv(config.EnvStepWorkers, strconv.Itoa(workers))
	os.Unsetenv(config.EnvSnapshotDir)
	os.Unsetenv(config.EnvCampaignDir)
}

// timed runs one batch and adds its wall time, allocation volume and
// peak resident set. Every batch starts from a collected heap returned
// to the OS, with the peak-RSS mark reset, so its peak is its own.
func (r *runner) timed(w workload, tr *tracer) (*batch, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steal0, total0 := hostCPUTicks()
	start := time.Now()
	b, err := w.run(r, tr)
	if err != nil {
		return nil, err
	}
	b.wall = time.Since(start).Seconds()
	if steal1, total1 := hostCPUTicks(); total1 > total0 {
		b.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	runtime.ReadMemStats(&after)
	b.allocBytes = after.TotalAlloc - before.TotalAlloc
	b.peakRSS = peakRSSMB()
	b.spans = tr
	if b.cleanup != nil {
		b.cleanup()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.heapAfter = after.HeapAlloc
	return b, nil
}

// measure runs a fixed number of batches of w, then renders the report
// and returns the result line. The count comes from --seconds and the
// workload's typical batch time, not from the clock, so a run does the
// same work on a fast host and a slow one, and two versions of the
// program are measured over the same batches. (loaded-32 batches get
// slower as a run goes on; see NOTES.md.) A traced run pairs each
// untraced batch with a traced one.
func (r *runner) measure(w workload, env map[string]any) (string, error) {
	fmt.Printf("perfbench %s\n", mustJSON(env))
	rounds := max(minBatches, int(math.Round(float64(r.seconds)/w.batchSeconds)))
	least := minBatches
	if r.trace {
		rounds = max(1, int(math.Round(float64(r.seconds)/(2*w.batchSeconds))))
		least = 1
	}
	deadline := time.Now().Add(time.Duration(overrun * float64(r.seconds) * float64(time.Second)))
	var plain, traced, ran []*batch // ran: every batch, in the order run
	for {
		b, err := r.timed(w, nil)
		if err != nil {
			return "", err
		}
		plain = append(plain, b)
		ran = append(ran, b)
		if r.trace {
			tb, err := r.timed(w, newTracer())
			if err != nil {
				return "", err
			}
			traced = append(traced, tb)
			ran = append(ran, tb)
		}
		fmt.Printf("batch %d: wall %.3fs setup %.4fs alloc %.1fMB peak RSS %.1fMB sim cycles %d steal %.1f%%\n",
			len(plain), b.wall, b.setup, float64(b.allocBytes)/1e6, b.peakRSS, b.simCycles, 100*b.steal)
		if len(plain) == rounds {
			break
		}
		if len(plain) >= least && time.Now().After(deadline) {
			fmt.Printf("notice: stopped after %d of %d batches: the run took over %gx --seconds\n",
				len(plain), rounds, overrun)
			break
		}
	}

	setups := make([]float64, 0, minSetupSamples)
	for _, b := range plain {
		setups = append(setups, b.setup)
	}
	for len(setups) < minSetupSamples {
		s, err := w.probeSetup(r)
		if err != nil {
			return "", err
		}
		setups = append(setups, s)
	}

	correct := true
	attempted, failed := 0, 0
	for i, b := range ran {
		attempted += b.attempted
		failed += b.failed
		for _, p := range b.problems {
			fmt.Printf("CHECK FAILED (batch %d): %s\n", i+1, p)
			correct = false
		}
		if b.digest != ran[0].digest {
			fmt.Printf("CHECK FAILED (batch %d): result digest %s differs from the first batch's %s\n",
				i+1, b.digest, ran[0].digest)
			correct = false
		}
	}

	first := plain[0]
	values := map[string]float64{
		"wall_s":                median(each(plain, func(b *batch) float64 { return b.wall })),
		"setup_s":               median(setups),
		"sim_cycles_per_s":      median(each(plain, func(b *batch) float64 { return float64(b.simCycles) / b.wall })),
		"alloc_mb":              median(each(plain, func(b *batch) float64 { return float64(b.allocBytes) / 1e6 })),
		"peak_rss_mb":           median(each(plain, func(b *batch) float64 { return b.peakRSS })),
		"ok_frac":               1 - float64(failed)/float64(attempted),
		"fail_frac":             float64(failed) / float64(attempted),
		"sim_latency_cycles":    median(first.latencies),
		"retained_mb_per_batch": retainedMB(ran),
	}
	for k, v := range first.report {
		values[k] = v
	}

	fmt.Printf("end-to-end (%d batches, %d set-up samples; medians):\n", len(plain), len(setups))
	for _, m := range append(append([]metric(nil), endToEnd...), reportOnly...) {
		if v, ok := values[m.name]; ok {
			fmt.Printf("  %-28s %16.6g %s\n", m.name, v, m.unit)
		}
	}
	for _, n := range first.notes {
		fmt.Println(n)
	}
	fmt.Printf("correct=%v attempted=%d failed=%d digest=%s\n", correct, attempted, failed, first.digest)

	out := values
	want := endToEnd
	if r.trace {
		probe := newTracer()
		probed, err := w.probeLayers(r, probe)
		if err != nil {
			return "", err
		}
		out = layerMetrics(ran, plain, traced, values, probe)
		for k, v := range probed {
			out[k] = v
		}
		want = perLayer
		fmt.Printf("per-layer (%d traced batches):\n", len(traced))
		for _, m := range perLayer {
			fmt.Printf("  %-30s %16.6g %s\n", m.name, out[m.name], m.unit)
		}
		path := filepath.Join(workDir, "traces", w.name+".jsonl")
		if err := writeSpans(path, env, traced, probe); err != nil {
			return "", err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	metrics := make(map[string]any, len(want))
	for _, m := range want {
		metrics[m.name] = map[string]any{"value": out[m.name], "unit": m.unit}
	}
	return mustJSON(map[string]any{"correct": correct, "attempted": attempted,
		"failed": failed, "metrics": metrics}), nil
}

// layerMetrics merges the batches' layer values (medians), the
// workload-only results, the self time per layer (a traced batch's plus
// the probes') and the tracing overhead: traced wall time minus
// untraced wall time.
func layerMetrics(ran, plain, traced []*batch, report map[string]float64, probe *tracer) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range perLayer {
		var xs []float64
		for _, b := range ran {
			if v, ok := b.layers[m.name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			out[m.name] = median(xs)
		}
	}
	for _, m := range reportOnly {
		out[m.name] = report[m.name]
	}
	for _, l := range layers {
		out[l+".self_s"] = median(each(traced, func(b *batch) float64 { return b.spans.selfSeconds()[l] })) +
			probe.selfSeconds()[l]
	}
	out["trace.overhead_s"] = median(each(traced, func(b *batch) float64 { return b.wall })) -
		median(each(plain, func(b *batch) float64 { return b.wall }))
	out["trace.spans"] = float64(len(traced[0].spans.spans))
	return out
}

// writeSpans writes the traced batches' and the probes' spans to one
// file, renumbered into a single id space, each job prefixed with its
// batch ("batch1/", ...) or "probe/".
func writeSpans(path string, env map[string]any, traced []*batch, probe *tracer) error {
	merged := newTracer()
	add := func(label string, t *tracer) {
		base := int32(len(merged.spans))
		for _, s := range t.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			s.Job = label + "/" + s.Job
			merged.spans = append(merged.spans, s)
		}
	}
	for i, b := range traced {
		add(fmt.Sprintf("batch%d", i+1), b.spans)
	}
	add("probe", probe)
	return merged.write(path, env)
}

// retainedMB is the live heap each batch leaves behind, averaged over
// the run's batches in the order they ran: 0 when a batch's memory is
// all collectable once it returns.
func retainedMB(bs []*batch) float64 {
	if len(bs) < 2 {
		return 0
	}
	grown := float64(bs[len(bs)-1].heapAfter) - float64(bs[0].heapAfter)
	return grown / float64(len(bs)-1) / 1e6
}

// digestJSON hashes the JSON encodings of vs in order: two batches whose
// results encode to the same bytes have the same digest.
func digestJSON[T any](vs []T) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			panic(err) // results are plain data; encoding cannot fail
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func mustJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(data)
}

func each(bs []*batch, f func(*batch) float64) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		out[i] = f(b)
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// hostCPUTicks reads the steal and total ticks of the aggregate "cpu"
// line of /proc/stat (0, 0 where it is unavailable). Steal is time the
// hypervisor ran something else on this machine's virtual CPUs; it is
// the main source of run-to-run noise on a shared host.
func hostCPUTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// resetPeakRSS resets the kernel's peak-RSS mark to the current RSS.
// Where /proc/self/clear_refs is unavailable the peak stays the
// process's.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}
