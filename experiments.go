package rlnoc

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"rlnoc/internal/core"
	"rlnoc/internal/power"
	"rlnoc/internal/stats"
)

// Suite holds the results of running every scheme over a set of
// benchmarks — the raw material from which each of the paper's figures is
// derived.
type Suite struct {
	Benchmarks []string
	Results    map[string]map[Scheme]Result // benchmark -> scheme -> result
}

// suiteWorkers resolves the worker-pool size for RunSuite: the configured
// Config.SuiteWorkers, or the process's GOMAXPROCS when unset. Every job
// is an independent simulation with its own seeded RNGs, so the pool size
// changes only memory use and wall-clock time, never results (pinned by
// TestDeterminismParallelSuite).
func suiteWorkers(cfg Config) int {
	if cfg.SuiteWorkers > 0 {
		return cfg.SuiteWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// RunSuite executes all four schemes over the given benchmarks (all nine
// PARSEC-like workloads if benchmarks is empty).
func RunSuite(cfg Config, benchmarks []string) (*Suite, error) {
	return runSuite(cfg, benchmarks, Schemes())
}

// runSuite runs every scheme over every benchmark on a fixed pool of
// suiteWorkers(cfg) goroutines. Each scheme pre-trains once, on its
// first job; every job then measures its benchmark on a fork of that
// state, byte-identical to a fresh Run (TestSuiteForkMatchesFresh).
// Workers take jobs in list order, benchmark-major, so the first jobs
// pre-train different schemes in parallel.
func runSuite(cfg Config, benchmarks []string, schemes []Scheme) (*Suite, error) {
	if len(benchmarks) == 0 {
		benchmarks = Benchmarks()
	}
	bases := make(map[Scheme]func() (*core.Pretrained, error), len(schemes))
	for _, sc := range schemes {
		bases[sc] = sync.OnceValues(func() (*core.Pretrained, error) { return core.NewPretrained(cfg, sc) })
	}
	type job struct {
		bench  string
		scheme Scheme
	}
	var jobs []job
	for _, b := range benchmarks {
		for _, sc := range schemes {
			jobs = append(jobs, job{b, sc})
		}
	}
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < suiteWorkers(cfg); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				base, err := bases[jobs[i].scheme]()
				if err == nil {
					results[i], err = base.RunBenchmark(jobs[i].bench)
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	s := &Suite{Benchmarks: benchmarks, Results: make(map[string]map[Scheme]Result)}
	for _, b := range benchmarks {
		s.Results[b] = make(map[Scheme]Result)
	}
	for i, j := range jobs {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s/%s: %w", j.bench, j.scheme, errs[i])
		}
		s.Results[j.bench][j.scheme] = results[i]
	}
	return s, nil
}

// FigureID names one of the paper's evaluation figures.
type FigureID string

// The paper's five evaluation figures.
const (
	Fig6Retransmission    FigureID = "fig6"  // retransmission packets, normalized to CRC
	Fig7Speedup           FigureID = "fig7"  // execution-time speed-up over CRC
	Fig8Latency           FigureID = "fig8"  // mean E2E latency, normalized to CRC
	Fig9EnergyEfficiency  FigureID = "fig9"  // flits/energy, normalized to CRC
	Fig10DynamicPower     FigureID = "fig10" // dynamic power, normalized to CRC
)

// FigureIDs returns all figure IDs in paper order.
func FigureIDs() []FigureID {
	return []FigureID{Fig6Retransmission, Fig7Speedup, Fig8Latency, Fig9EnergyEfficiency, Fig10DynamicPower}
}

// Figure is one regenerated chart: per-benchmark bars for each scheme,
// normalized to the CRC baseline, plus the cross-benchmark mean.
type Figure struct {
	ID    FigureID
	Title string
	// Rows maps benchmark -> scheme -> normalized value.
	Rows map[string]map[Scheme]float64
	// Mean is the arithmetic mean across benchmarks per scheme (the
	// "average" bar of the paper's figures).
	Mean map[Scheme]float64
	// Benchmarks preserves row order.
	Benchmarks []string
	// LowerIsBetter tells renderers which direction wins.
	LowerIsBetter bool
}

// metric extracts the raw (pre-normalization) quantity for a figure.
func metric(id FigureID, r Result) float64 {
	switch id {
	case Fig6Retransmission:
		return r.RetransmittedPacketEq
	case Fig7Speedup:
		return float64(r.ExecutionCycles)
	case Fig8Latency:
		return r.MeanLatency
	case Fig9EnergyEfficiency:
		return r.EnergyEfficiency
	case Fig10DynamicPower:
		return r.DynamicPowerW
	default:
		return 0
	}
}

var figureTitles = map[FigureID]string{
	Fig6Retransmission:   "Fig. 6: retransmission packets (normalized to CRC, lower is better)",
	Fig7Speedup:          "Fig. 7: execution-time speed-up over CRC (higher is better)",
	Fig8Latency:          "Fig. 8: average end-to-end latency (normalized to CRC, lower is better)",
	Fig9EnergyEfficiency: "Fig. 9: energy efficiency (normalized to CRC, higher is better)",
	Fig10DynamicPower:    "Fig. 10: dynamic power (normalized to CRC, lower is better)",
}

// Figure derives one of the paper's figures from the suite.
func (s *Suite) Figure(id FigureID) (Figure, error) {
	title, ok := figureTitles[id]
	if !ok {
		return Figure{}, fmt.Errorf("rlnoc: unknown figure %q", id)
	}
	f := Figure{
		ID:            id,
		Title:         title,
		Rows:          make(map[string]map[Scheme]float64),
		Mean:          make(map[Scheme]float64),
		Benchmarks:    append([]string(nil), s.Benchmarks...),
		LowerIsBetter: id == Fig6Retransmission || id == Fig8Latency || id == Fig10DynamicPower,
	}
	acc := make(map[Scheme][]float64)
	for _, bench := range s.Benchmarks {
		row := make(map[Scheme]float64)
		base := metric(id, s.Results[bench][CRC])
		for _, sc := range Schemes() {
			raw := metric(id, s.Results[bench][sc])
			var v float64
			switch {
			case id == Fig7Speedup:
				// Speed-up: CRC execution time over this scheme's.
				if raw > 0 {
					v = base / raw
				}
			case base > 0:
				v = raw / base
			case raw == 0:
				// 0/0 (e.g. zero retransmissions everywhere): call it parity.
				v = 1
			}
			row[sc] = v
			acc[sc] = append(acc[sc], v)
		}
		f.Rows[bench] = row
	}
	for sc, vals := range acc {
		f.Mean[sc] = stats.Mean(vals)
	}
	return f, nil
}

// Format renders the figure as an aligned text table.
func (f Figure) Format() string {
	var b strings.Builder
	fmt.Fprintln(&b, f.Title)
	fmt.Fprintf(&b, "%-15s", "benchmark")
	for _, sc := range Schemes() {
		fmt.Fprintf(&b, "%10s", sc)
	}
	fmt.Fprintln(&b)
	benches := append([]string(nil), f.Benchmarks...)
	sort.Strings(benches)
	for _, bench := range benches {
		fmt.Fprintf(&b, "%-15s", bench)
		for _, sc := range Schemes() {
			fmt.Fprintf(&b, "%10.3f", f.Rows[bench][sc])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-15s", "mean")
	for _, sc := range Schemes() {
		fmt.Fprintf(&b, "%10.3f", f.Mean[sc])
	}
	fmt.Fprintln(&b)
	return b.String()
}

// MultiSuite holds suites run with different seeds, for mean +/- std
// reporting across runs.
type MultiSuite struct {
	Suites []*Suite
}

// RunSuiteSeeds runs the full suite once per seed.
func RunSuiteSeeds(cfg Config, benchmarks []string, seeds []int64) (*MultiSuite, error) {
	if len(seeds) == 0 {
		seeds = []int64{cfg.Seed}
	}
	m := &MultiSuite{}
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		s, err := RunSuite(c, benchmarks)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		m.Suites = append(m.Suites, s)
	}
	return m, nil
}

// Figure aggregates one figure across seeds: the returned Figure carries
// the across-seed mean of each cell, and the second result holds the
// across-seed standard deviation of each scheme's overall mean.
func (m *MultiSuite) Figure(id FigureID) (Figure, map[Scheme]float64, error) {
	if len(m.Suites) == 0 {
		return Figure{}, nil, fmt.Errorf("rlnoc: empty multi-suite")
	}
	var figs []Figure
	for _, s := range m.Suites {
		f, err := s.Figure(id)
		if err != nil {
			return Figure{}, nil, err
		}
		figs = append(figs, f)
	}
	out := figs[0]
	agg := Figure{
		ID: out.ID, Title: out.Title, Benchmarks: out.Benchmarks,
		LowerIsBetter: out.LowerIsBetter,
		Rows:          make(map[string]map[Scheme]float64),
		Mean:          make(map[Scheme]float64),
	}
	for _, bench := range out.Benchmarks {
		row := make(map[Scheme]float64)
		for _, sc := range Schemes() {
			var vals []float64
			for _, f := range figs {
				vals = append(vals, f.Rows[bench][sc])
			}
			row[sc] = stats.Mean(vals)
		}
		agg.Rows[bench] = row
	}
	std := make(map[Scheme]float64)
	for _, sc := range Schemes() {
		var means []float64
		for _, f := range figs {
			means = append(means, f.Mean[sc])
		}
		agg.Mean[sc] = stats.Mean(means)
		std[sc] = stats.StdDev(means)
	}
	return agg, std, nil
}

// Chart renders the figure as horizontal ASCII bars, one group per
// benchmark, mirroring the paper's bar charts.
func (f Figure) Chart() string {
	const width = 44
	var maxV float64
	for _, row := range f.Rows {
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	var b strings.Builder
	fmt.Fprintln(&b, f.Title)
	benches := append([]string(nil), f.Benchmarks...)
	sort.Strings(benches)
	for _, bench := range benches {
		fmt.Fprintf(&b, "%s\n", bench)
		for _, sc := range Schemes() {
			v := f.Rows[bench][sc]
			n := int(v / maxV * width)
			if n < 0 {
				n = 0
			}
			if n > width {
				n = width
			}
			fmt.Fprintf(&b, "  %-8s %6.3f %s\n", sc, v, strings.Repeat("#", n))
		}
	}
	fmt.Fprintln(&b, "mean")
	for _, sc := range Schemes() {
		v := f.Mean[sc]
		n := int(v / maxV * width)
		if n < 0 {
			n = 0
		}
		if n > width {
			n = width
		}
		fmt.Fprintf(&b, "  %-8s %6.3f %s\n", sc, v, strings.Repeat("#", n))
	}
	return b.String()
}

// OverheadReport reproduces the Section VI-B overhead analysis: router
// area per variant, the RL router's area overhead ratios, and the RL
// control logic's per-flit energy overhead.
func OverheadReport() string {
	var b strings.Builder
	crc, arq, dt, rl := power.RouterAreas()
	fmt.Fprintln(&b, "Section VI-B overhead analysis (32 nm)")
	fmt.Fprintf(&b, "router area: CRC %.0f um^2, ARQ+ECC %.0f um^2, DT %.0f um^2, RL %.0f um^2\n",
		crc.Total(), arq.Total(), dt.Total(), rl.Total())
	fmt.Fprintf(&b, "RL addition over CRC router: %.0f um^2\n", rl.Total()-crc.Total())
	vsCRC, vsARQ, vsDT := power.AreaOverheads()
	fmt.Fprintf(&b, "area overhead: %.1f%% vs CRC, %.1f%% vs ARQ+ECC, %.1f%% vs DT\n",
		vsCRC*100, vsARQ*100, vsDT*100)
	over, base, frac := power.EnergyOverheadPerFlit(power.DefaultParams())
	fmt.Fprintf(&b, "energy overhead: %.2f pJ/flit on a %.1f pJ/flit baseline = %.1f%%\n",
		over, base, frac*100)
	fmt.Fprintln(&b, "computation overhead: worst-case 150 ns per RL step, hidden inside the 1K-cycle (500 ns x1000) epoch")
	return b.String()
}

// TableII renders the simulation parameters (Table II) for a config.
func TableII(cfg Config) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table II: simulation parameters")
	fmt.Fprintf(&b, "cores / routers     %d (%dx%d 2D %s)\n", cfg.Routers(), cfg.Width, cfg.Height, cfg.TopologyKind())
	fmt.Fprintf(&b, "routing             %s dimension-ordered\n", cfg.Routing)
	fmt.Fprintf(&b, "router pipeline     %d stages, %d VCs/port, %d flits/VC\n",
		cfg.PipelineDepth, cfg.VCsPerPort, cfg.VCDepth)
	fmt.Fprintf(&b, "packet              %d bits/flit, %d flits\n", cfg.FlitBits, cfg.FlitsPerPacket)
	fmt.Fprintf(&b, "operating point     %.1f V, %.1f GHz\n", cfg.VoltageV, cfg.FrequencyGHz)
	fmt.Fprintf(&b, "RL                  alpha %.2f, gamma %.2f, epsilon %.2f, step %d cycles\n",
		cfg.RL.Alpha, cfg.RL.Gamma, cfg.RL.Epsilon, cfg.RL.StepCycles)
	fmt.Fprintf(&b, "phases              pretrain %d, warmup %d, measure %d, drain %d cycles\n",
		cfg.PretrainCycles, cfg.WarmupCycles, cfg.MaxCycles, cfg.DrainCycles)
	return b.String()
}
