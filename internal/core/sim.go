package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"rlnoc/internal/config"
	"rlnoc/internal/network"
	"rlnoc/internal/stats"
	"rlnoc/internal/topology"
	"rlnoc/internal/traffic"
)

// topologyOf builds the fabric described by a config.
func topologyOf(cfg config.Config) (topology.Topology, error) {
	return topology.FromConfig(cfg)
}

// pretrainSegments are the synthetic traffic phases of the pre-training
// program. Mixing rates and patterns sweeps the controllers through cool
// and hot, quiet and congested operating points so the learned policy
// covers the state space the benchmarks later visit (the paper pre-trains
// on synthetic traffic for 1M cycles).
var pretrainSegments = []struct {
	pattern traffic.Pattern
	rate    float64
}{
	{traffic.Uniform, 0.001},
	{traffic.Uniform, 0.006},
	{traffic.Hotspot, 0.004},
	{traffic.Transpose, 0.003},
	{traffic.Uniform, 0.009},
	{traffic.Neighbor, 0.002},
}

// Result is the outcome of one benchmark run under one scheme: the raw
// material of every figure in the paper.
type Result struct {
	Scheme    Scheme
	Benchmark string

	// ExecutionCycles is the full testing-phase execution time (trace
	// start to last delivery), the Fig. 7 quantity.
	ExecutionCycles int64
	// Drained reports whether all traffic completed within the cycle cap.
	Drained bool

	// MeanLatency is the average end-to-end packet latency in cycles
	// (Fig. 8).
	MeanLatency float64
	// RetransmittedPacketEq is retransmission traffic in packet
	// equivalents (Fig. 6).
	RetransmittedPacketEq float64

	// Energy over the measurement window, picojoules.
	DynamicPJ float64
	StaticPJ  float64
	TotalPJ   float64
	// DynamicPowerW is the average dynamic power (Fig. 10).
	DynamicPowerW float64
	// EnergyEfficiency is flits delivered per microjoule (Fig. 9 defines
	// efficiency as flits/energy).
	EnergyEfficiency float64

	FlitsDelivered int64

	MeanTempC float64
	MaxTempC  float64

	// ModeDecisions counts controller decisions per operation mode over
	// the whole run (adaptive schemes only).
	ModeDecisions [int(network.NumModes)]int64
	// ModeMeanReward is the mean RL reward observed after each mode
	// (RL scheme only).
	ModeMeanReward [int(network.NumModes)]float64

	Summary stats.Summary
}

// Sim runs one scheme through the paper's phase sequence over a given
// test trace.
type Sim struct {
	cfg    config.Config
	scheme Scheme
	net    *network.Network
	ctrl   network.Controller

	observerEvery int64
	observer      func(Snapshot)

	// ms is the in-progress measurement phase, held on the Sim (rather
	// than as Measure locals) so SnapState can serialize it and a
	// restored process can resume the loop mid-phase (DESIGN.md §15).
	ms *measureState

	// Snapshot policy: every snapEvery measurement cycles, write a
	// checkpoint into snapDir (0 disables; see SetSnapshotPolicy).
	snapDir   string
	snapEvery int64
	lastSnap  string

	// abortp holds the cooperative-cancellation request, set from any
	// goroutine via Abort and polled by the cycle loops (pollControl).
	// The loop stops between Steps, so the Sim is left at a clean
	// inter-cycle boundary — snapshot-safe for suspend/resume.
	abortp atomic.Pointer[AbortError]

	// Progress reporting (nocsim -progress): progFn receives the current
	// simulated cycle — the network cycle counter, which fast-forward
	// advances across skipped spans, so derived cycles/s stays meaningful
	// — at wall-clock intervals of at least progEvery. The tick counter
	// keeps the common path to one increment and mask per iteration.
	progEvery time.Duration
	progFn    func(cycle int64)
	progTick  int
	progLast  time.Time
}

// Snapshot is a live view of the running network, delivered to observers
// during the measurement phase (e.g. to watch the RL agents adapt).
type Snapshot struct {
	Cycle        int64
	ModeCounts   [int(network.NumModes)]int // routers currently in each mode
	Modes        []int                      // per-router operation mode
	TempsC       []float64                  // per-router tile temperature
	MeanTempC    float64
	MaxTempC     float64
	DataInFlight int
}

// SetObserver registers fn to be called every `every` cycles of the
// measurement phase.
func (s *Sim) SetObserver(every int64, fn func(Snapshot)) {
	s.observerEvery = every
	s.observer = fn
}

// SetProgress registers fn to be called with the current simulated cycle
// at wall-clock intervals of roughly `every` during the pre-training and
// measurement loops. The reported cycle is the network's cycle counter,
// which counts fast-forwarded spans like stepped ones.
func (s *Sim) SetProgress(every time.Duration, fn func(cycle int64)) {
	s.progEvery = every
	s.progFn = fn
	s.progLast = time.Now()
}

// AbortError is the cooperative-cancellation outcome of a simulation
// loop: the run was stopped between cycles on request (deadline,
// watchdog stall-kill, graceful shutdown), not because the simulation
// failed. The campaign supervisor keys its suspend/requeue handling off
// this type; Reason carries the caller's cause (e.g. context.Canceled).
type AbortError struct{ Reason error }

func (e *AbortError) Error() string { return "core: run aborted: " + e.Reason.Error() }

// Unwrap exposes the abort cause to errors.Is/As chains.
func (e *AbortError) Unwrap() error { return e.Reason }

// IsAbort reports whether err marks a cooperative abort (anywhere in
// its chain).
func IsAbort(err error) bool {
	var ae *AbortError
	return errors.As(err, &ae)
}

// Abort requests that the running cycle loop stop at its next control
// poll (within 256 iterations). Safe to call from any goroutine, and
// before or during a run; the first reason wins. The loop returns an
// *AbortError wrapping reason, leaving the Sim at an inter-cycle
// boundary from which SaveSnapshot captures a resumable checkpoint.
func (s *Sim) Abort(reason error) {
	if reason == nil {
		reason = errors.New("abort requested")
	}
	s.abortp.CompareAndSwap(nil, &AbortError{Reason: reason})
}

// Aborted returns the pending abort (nil if none).
func (s *Sim) Aborted() error {
	if e := s.abortp.Load(); e != nil {
		return e
	}
	return nil
}

// HasMeasure reports whether a measurement phase is installed — true
// from Measure/RestoreSim until the phase's Result is produced. An
// aborted Sim with no measure phase (stopped mid-pretrain) has no
// resumable checkpoint shape; supervisors restart those from scratch.
func (s *Sim) HasMeasure() bool { return s.ms != nil }

// pollControl is the cycle loops' per-iteration control hook: every 256
// iterations it checks for a pending abort and fires the progress
// callback when the wall-clock interval has elapsed. It reads but never
// writes simulation state, so byte-identity is unaffected.
func (s *Sim) pollControl() error {
	s.progTick++
	if s.progTick&255 != 0 {
		return nil
	}
	if e := s.abortp.Load(); e != nil {
		return e
	}
	if s.progFn != nil {
		if now := time.Now(); now.Sub(s.progLast) >= s.progEvery {
			s.progLast = now
			s.progFn(s.net.Cycle())
		}
	}
	return nil
}

// fastForward reports whether the cycle loops may jump quiescent spans
// (DESIGN.md §16). On by default; config.NoFastForward pins per-cycle
// stepping (the referee for TestFastForwardMatchesPerCycle).
func (s *Sim) fastForward() bool { return !s.cfg.NoFastForward }

// nextMultiple returns the smallest multiple of period strictly greater
// than cycle — the caller-side boundary arithmetic mirroring the
// network's internal event horizon.
func nextMultiple(cycle, period int64) int64 {
	return cycle - cycle%period + period
}

func (s *Sim) snapshot() Snapshot {
	snap := Snapshot{
		Cycle:        s.net.Cycle(),
		MeanTempC:    s.net.Thermal().MeanTemperature(),
		MaxTempC:     s.net.Thermal().MaxTemperature(),
		DataInFlight: s.net.DataInFlight(),
	}
	for _, m := range s.net.Modes() {
		snap.ModeCounts[m]++
		snap.Modes = append(snap.Modes, int(m))
	}
	snap.TempsC = append(snap.TempsC, s.net.Thermal().Temperatures()...)
	return snap
}

// NewSim builds the network for a scheme.
func NewSim(cfg config.Config, scheme Scheme) (*Sim, error) {
	// The qroute scheme is the RL scheme plus learned routing; the network
	// reads the flag (validated against the rest of the config) to build
	// its per-router route agents.
	cfg.QRoute.Enabled = scheme == SchemeQRoute
	ctrl, kind, hasECC, err := buildController(scheme, cfg)
	if err != nil {
		return nil, err
	}
	net, err := network.New(cfg, ctrl, kind, hasECC)
	if err != nil {
		return nil, err
	}
	return &Sim{cfg: cfg, scheme: scheme, net: net, ctrl: ctrl}, nil
}

// NewStaticSim builds a simulation whose routers are pinned to a single
// operation mode — the static-mode ablation showing that no fixed mode
// dominates across error levels.
func NewStaticSim(cfg config.Config, mode network.Mode) (*Sim, error) {
	ctrl := network.StaticController{Fixed: mode}
	hasECC := mode.ECCOn()
	net, err := network.New(cfg, ctrl, network.ControllerNone, hasECC)
	if err != nil {
		return nil, err
	}
	return &Sim{cfg: cfg, scheme: Scheme("static-" + mode.String()), net: net, ctrl: ctrl}, nil
}

// Network exposes the underlying network (examples and tests peek at it).
func (s *Sim) Network() *network.Network { return s.net }

// Close releases the network's step-worker goroutines (a no-op for
// sequential simulations). A Sim built with StepWorkers > 1 leaks its
// idle workers if Close is never called.
func (s *Sim) Close() { s.net.Close() }

// Controller exposes the scheme's controller.
func (s *Sim) Controller() network.Controller { return s.ctrl }

// Pretrain runs the synthetic pre-training phase: every scheme sees the
// same traffic (so thermal state is comparable); the RL agents learn and
// the DT controller collects its labeled samples, then trains and
// freezes. The phase ends with a drain.
func (s *Sim) Pretrain() error {
	cycles := int64(s.cfg.PretrainCycles)
	if cycles > 0 {
		per := cycles / int64(len(pretrainSegments))
		if per < 1 {
			per = cycles
		}
		var events []traffic.Event
		var offset int64
		for i, seg := range pretrainSegments {
			if offset >= cycles {
				break
			}
			span := per
			if offset+span > cycles {
				span = cycles - offset
			}
			segEvents, err := traffic.Synthetic(s.net.Topology(), seg.pattern, seg.rate,
				s.cfg.FlitsPerPacket, span, s.cfg.Seed*31+900+int64(i))
			if err != nil {
				return err
			}
			for _, e := range segEvents {
				e.Cycle += offset
				events = append(events, e)
			}
			offset += span
		}
		if err := s.runTrace(events, cycles+int64(s.cfg.DrainCycles)); err != nil {
			return err
		}
	}
	if dtc, ok := s.ctrl.(*DTController); ok {
		if err := dtc.FinishTraining(); err != nil {
			return err
		}
	}
	if rlc, ok := s.ctrl.(*RLController); ok && s.cfg.RL.FreezeAfterPretrain {
		rlc.Freeze()
	}
	return nil
}

// injector replays a trace through the source-window back-pressure model:
// a node's next event is held while the node has SourceWindow undelivered
// packets outstanding, so a slow (error-ridden) network stretches the
// application's execution time, exactly what Fig. 7 measures.
type injector struct {
	queues [][]traffic.Event
	// heads[src] indexes the next pending event of queues[src]; consuming
	// by index instead of re-slicing keeps the per-cycle injection sweep
	// free of slice-header churn.
	heads     []int
	remaining int
	window    int
	base      int64
}

func newInjector(events []traffic.Event, nodes int, window int, base int64) *injector {
	in := &injector{queues: make([][]traffic.Event, nodes), heads: make([]int, nodes),
		remaining: len(events), window: window, base: base}
	for _, e := range events {
		in.queues[e.Src] = append(in.queues[e.Src], e)
	}
	return in
}

func (in *injector) step(net *network.Network, now int64) error {
	for src := range in.queues {
		q := in.queues[src]
		h := in.heads[src]
		for h < len(q) && in.base+q[h].Cycle <= now {
			if in.window > 0 && net.SourceOutstanding(src) >= in.window {
				break
			}
			e := q[h]
			if _, err := net.NewDataPacket(e.Src, e.Dst, e.Flits, now); err != nil {
				return err
			}
			h++
			in.remaining--
		}
		in.heads[src] = h
	}
	return nil
}

func (in *injector) done() bool { return in.remaining == 0 }

// nextEventCycle returns the absolute cycle of the earliest pending
// event across all sources, and whether any remain — the injector's
// contribution to the fast-forward event horizon. A head event held by
// source-window back-pressure reports its (past) original cycle, which
// simply yields a no-op jump; back-pressure cannot hold events while
// the network is quiescent, because outstanding packets imply flits in
// flight.
func (in *injector) nextEventCycle() (int64, bool) {
	var best int64
	ok := false
	for src, q := range in.queues {
		if h := in.heads[src]; h < len(q) {
			if c := in.base + q[h].Cycle; !ok || c < best {
				best, ok = c, true
			}
		}
	}
	return best, ok
}

// runTrace injects events (whose cycles are relative to the current
// network cycle) and steps until everything drains or the relative cycle
// cap passes. Hitting the cap is not an error — the pre-training phase is
// warm-up, and under a reactive baseline at a hostile error corner a
// retransmission storm may legitimately still be draining; the leftovers
// complete during the next phase's warm-up.
func (s *Sim) runTrace(events []traffic.Event, relCap int64) error {
	base := s.net.Cycle()
	capCycle := base + relCap
	in := newInjector(events, s.cfg.Routers(), s.cfg.SourceWindow, base)
	ff := s.fastForward()
	for s.net.Cycle() < capCycle {
		// Fast-forward: with events still pending and the network
		// quiescent, jump to the next injection (or the cap), clamped by
		// the network to its own internal event horizon. Gated on
		// !in.done() so the empty-trace case steps once exactly like the
		// per-cycle loop. Cycles skipped here would each have mutated
		// only the cycle counter (DESIGN.md §16).
		if ff && !in.done() && s.net.Quiescent() {
			target := capCycle
			if nc, ok := in.nextEventCycle(); ok && nc < target {
				target = nc
			}
			if s.net.FastForwardTo(target) >= capCycle {
				// Jumped to the cap: exit exactly as the per-cycle loop
				// does on reaching it, without injecting events due at
				// the cap itself.
				break
			}
		}
		if err := in.step(s.net, s.net.Cycle()); err != nil {
			return err
		}
		if err := s.net.Step(); err != nil {
			return err
		}
		if err := s.pollControl(); err != nil {
			return err
		}
		if in.done() && s.net.Drained() {
			return nil
		}
	}
	return nil
}

// measureState is the complete bookkeeping of an in-progress
// measurement phase. Everything a resumed process needs to re-enter the
// loop at the exact cycle it left lives here: the phase boundaries, the
// energy-meter baselines captured at warm-up end, and the injector
// cursors (the events themselves are serialized so the restored side
// needs no access to the original trace file).
type measureState struct {
	label  string
	events []traffic.Event
	in     *injector

	base     int64
	warmEnd  int64
	capCycle int64

	dynStart     float64
	totStart     float64
	measureStart int64
	started      bool
	drained      bool
}

// beginMeasure installs a fresh measurement phase over events.
func (s *Sim) beginMeasure(events []traffic.Event, label string) {
	base := s.net.Cycle()
	var traceLen int64
	if len(events) > 0 {
		traceLen = events[len(events)-1].Cycle
	}
	s.ms = &measureState{
		label:    label,
		events:   events,
		in:       newInjector(events, s.cfg.Routers(), s.cfg.SourceWindow, base),
		base:     base,
		warmEnd:  base + int64(s.cfg.WarmupCycles),
		capCycle: base + traceLen + int64(s.cfg.WarmupCycles) + int64(s.cfg.MaxCycles) + int64(s.cfg.DrainCycles),
	}
}

// Measure runs the testing phase over events and collects the Result.
// The warm-up prefix is excluded from statistics but included in the
// execution time, mirroring the paper's methodology.
func (s *Sim) Measure(events []traffic.Event, label string) (Result, error) {
	s.beginMeasure(events, label)
	return s.runMeasure()
}

// ResumeMeasure continues a measurement phase restored by RestoreSim,
// running it to completion from the snapshotted cycle.
func (s *Sim) ResumeMeasure() (Result, error) {
	if s.ms == nil {
		return Result{}, fmt.Errorf("core: no measurement phase to resume")
	}
	return s.runMeasure()
}

// runMeasure drives the installed measurement phase to completion. The
// loop body is cycle-for-cycle the behavior Measure always had; the only
// addition is the snapshot hook, which runs between cycles and touches
// no simulation state.
func (s *Sim) runMeasure() (Result, error) {
	net, ms := s.net, s.ms
	ff := s.fastForward()
	for net.Cycle() < ms.capCycle {
		now := net.Cycle()
		// Fast-forward (DESIGN.md §16): with events pending and the
		// network quiescent, jump to the earliest cycle anything can
		// happen — the next injection, the warm-up edge (so the meter
		// baselines are captured on the same cycle as per-cycle
		// stepping), the next observer or snapshot boundary (stopping
		// one cycle short so the boundary is reached through a normal
		// Step and the hook fires on the exact cycle), or the cap. The
		// network clamps the jump to its own internal horizon (thermal,
		// control epoch, invariant census, pending hard faults).
		if ff && !ms.in.done() && net.Quiescent() {
			target := ms.capCycle
			if nc, ok := ms.in.nextEventCycle(); ok && nc < target {
				target = nc
			}
			if !ms.started && ms.warmEnd < target {
				target = ms.warmEnd
			}
			if s.observer != nil && s.observerEvery > 0 {
				if b := nextMultiple(now, s.observerEvery) - 1; b < target {
					target = b
				}
			}
			if s.snapEvery > 0 {
				if b := ms.base + nextMultiple(now-ms.base, s.snapEvery) - 1; b < target {
					target = b
				}
			}
			if net.FastForwardTo(target) >= ms.capCycle {
				// Jumped to the cap: exit exactly as the per-cycle loop
				// does, without injecting events due at the cap itself.
				break
			}
			now = net.Cycle()
		}
		if !ms.started && now >= ms.warmEnd {
			net.Stats().SetMeasuring(true)
			ms.dynStart = net.Meter().TotalDynamicPJ()
			ms.totStart = net.Meter().TotalPJ()
			ms.measureStart = now
			ms.started = true
			// Anneal exploration for the measured phase (every random
			// mode costs real latency; see config.RLConfig.TestEpsilon).
			if s.cfg.RL.TestEpsilon >= 0 {
				switch c := s.ctrl.(type) {
				case *RLController:
					c.SetEpsilon(s.cfg.RL.TestEpsilon)
				case *RLPortController:
					c.SetEpsilon(s.cfg.RL.TestEpsilon)
				}
			}
			if rlc, ok := s.ctrl.(*RLController); ok {
				rlc.ResetTelemetry()
			}
		}
		if err := ms.in.step(net, now); err != nil {
			return Result{}, err
		}
		if err := net.Step(); err != nil {
			return Result{}, err
		}
		if s.observer != nil && s.observerEvery > 0 && net.Cycle()%s.observerEvery == 0 {
			s.observer(s.snapshot())
		}
		if s.snapEvery > 0 && (net.Cycle()-ms.base)%s.snapEvery == 0 {
			if err := s.writeAutoSnapshot(); err != nil {
				return Result{}, err
			}
		}
		if err := s.pollControl(); err != nil {
			return Result{}, err
		}
		if ms.in.done() && net.Drained() {
			ms.drained = true
			break
		}
	}
	net.Stats().SetMeasuring(false)
	if !ms.started {
		return Result{}, fmt.Errorf("core: warm-up longer than the run")
	}

	sum := net.Stats().Summarize()
	dyn := net.Meter().TotalDynamicPJ() - ms.dynStart
	tot := net.Meter().TotalPJ() - ms.totStart
	measuredCycles := net.Cycle() - ms.measureStart
	measuredNS := float64(measuredCycles) * s.cfg.CyclePeriodNS()

	res := Result{
		Scheme:                s.scheme,
		Benchmark:             ms.label,
		ExecutionCycles:       net.LastDeliveryCycle() - ms.base,
		Drained:               ms.drained,
		MeanLatency:           sum.MeanLatency,
		RetransmittedPacketEq: net.Stats().RetransmittedPacketEquivalents(s.cfg.FlitsPerPacket),
		DynamicPJ:             dyn,
		StaticPJ:              tot - dyn,
		TotalPJ:               tot,
		FlitsDelivered:        sum.FlitsDelivered,
		MeanTempC:             net.Thermal().MeanTemperature(),
		MaxTempC:              net.Thermal().MaxTemperature(),
		Summary:               sum,
	}
	if measuredNS > 0 {
		res.DynamicPowerW = dyn / measuredNS / 1000 // pJ/ns = mW
	}
	if tot > 0 {
		res.EnergyEfficiency = float64(sum.FlitsDelivered) / (tot * 1e-6) // flits per microjoule
	}
	switch c := s.ctrl.(type) {
	case *RLController:
		res.ModeDecisions, res.ModeMeanReward = c.Telemetry()
	case *DTController:
		res.ModeDecisions = c.decideCount
	}
	return res, nil
}

// RunTrace executes the full methodology (pre-train, test, measure) for
// one scheme over one trace.
func RunTrace(cfg config.Config, scheme Scheme, events []traffic.Event, label string) (Result, error) {
	sim, err := NewSim(cfg, scheme)
	if err != nil {
		return Result{}, err
	}
	defer sim.Close()
	if err := sim.Pretrain(); err != nil {
		return Result{}, err
	}
	return sim.Measure(events, label)
}

// benchmarkTrace synthesizes the named PARSEC-like benchmark's test
// trace for a config.
func benchmarkTrace(cfg config.Config, benchmark string) ([]traffic.Event, error) {
	b, err := traffic.BenchmarkByName(benchmark)
	if err != nil {
		return nil, err
	}
	topo, err := topologyOf(cfg)
	if err != nil {
		return nil, err
	}
	return b.Trace(topo, int64(cfg.MaxCycles), cfg.FlitsPerPacket, cfg.Seed*31+1300)
}

// RunBenchmark synthesizes the named PARSEC-like benchmark's trace and
// runs it under a scheme.
func RunBenchmark(cfg config.Config, scheme Scheme, benchmark string) (Result, error) {
	events, err := benchmarkTrace(cfg, benchmark)
	if err != nil {
		return Result{}, err
	}
	return RunTrace(cfg, scheme, events, benchmark)
}

// Pretrained is a scheme's simulation as Pretrain leaves it, held as
// snapshot bytes (DESIGN.md §15). Pre-training depends only on the
// config and the scheme, so every benchmark can start from one
// Pretrained instead of repeating the phase. The bytes are only read, so
// concurrent forks are safe.
type Pretrained struct {
	cfg   config.Config
	state []byte
}

// NewPretrained pre-trains a fresh Sim for scheme and captures its state.
func NewPretrained(cfg config.Config, scheme Scheme) (*Pretrained, error) {
	sim, err := NewSim(cfg, scheme)
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	if err := sim.Pretrain(); err != nil {
		return nil, err
	}
	state, err := sim.snapBytes()
	if err != nil {
		return nil, err
	}
	return &Pretrained{cfg: cfg, state: state}, nil
}

// RunBenchmark measures the named benchmark on a fork: a Sim restored
// from the pretrained state. Its Result is byte-identical to
// RunBenchmark's with the same config and scheme.
func (p *Pretrained) RunBenchmark(benchmark string) (Result, error) {
	events, err := benchmarkTrace(p.cfg, benchmark)
	if err != nil {
		return Result{}, err
	}
	sim, err := RestoreSim(bytes.NewReader(p.state))
	if err != nil {
		return Result{}, err
	}
	defer sim.Close()
	return sim.Measure(events, benchmark)
}
