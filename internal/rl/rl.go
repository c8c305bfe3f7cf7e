// Package rl implements the tabular Q-learning machinery of the paper's
// per-router fault-tolerant controller: the Table-I state space with its
// discretization (5 linear bins for buffer/link utilization and
// temperature, 4 log-space bins for NACK rates), an epsilon-greedy policy
// over the four operation modes, and the temporal-difference update
// Q(s,a) <- (1-alpha)Q(s,a) + alpha[r + gamma*max_a' Q(s',a')].
package rl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"

	"rlnoc/internal/config"
	"rlnoc/internal/snap"
)

// Bin counts per feature, per the paper: features 1-3 and 6 have 5 bins,
// features 4-5 (NACK rates) have 4.
const (
	BufBins     = 5
	LinkBins    = 5
	NACKBins    = 4
	TempBins    = 5
	NumStates   = BufBins * LinkBins * LinkBins * NACKBins * NACKBins * TempBins
	NumActions  = 4
)

// Features is the raw (continuous) per-router observation vector of
// Table I, aggregated over the router's five ports.
type Features struct {
	BufferUtilization float64 // fraction of occupied input VCs, [0,1]
	InputLinkUtil     float64 // flits/cycle averaged over input ports
	OutputLinkUtil    float64 // flits/cycle averaged over output ports
	InputNACKRate     float64 // NACKs received per flit sent, [0,1]
	OutputNACKRate    float64 // NACKs sent per flit received, [0,1]
	TemperatureC      float64 // local tile temperature
}

// State is the discretized observation.
type State struct {
	Buf     uint8 // 0..4
	InLink  uint8 // 0..4
	OutLink uint8 // 0..4
	InNACK  uint8 // 0..3
	OutNACK uint8 // 0..3
	Temp    uint8 // 0..4
}

// Index maps the state to a dense table row.
func (s State) Index() int {
	i := int(s.Buf)
	i = i*LinkBins + int(s.InLink)
	i = i*LinkBins + int(s.OutLink)
	i = i*NACKBins + int(s.InNACK)
	i = i*NACKBins + int(s.OutNACK)
	i = i*TempBins + int(s.Temp)
	return i
}

// Discretizer converts raw features into bins. Utilization and temperature
// bins are linear over the paper's observed ranges (max link utilization
// 0.3 flits/cycle; temperature in [50,100] C); NACK-rate bins are
// log-spaced decades.
type Discretizer struct {
	MaxLinkUtil float64
	TempLoC     float64
	TempHiC     float64
}

// DefaultDiscretizer sets bin ranges from this simulator's observed
// operating envelope (the paper does the same from its own observations:
// temperatures in [50,100] C, link utilization up to 0.3 flits/cycle; our
// thermal and traffic calibration lands in [55,90] C and 0.15
// flits/cycle). Binning outside the live range would collapse the state
// space into one or two bins and starve the policy of information.
func DefaultDiscretizer() Discretizer {
	return Discretizer{MaxLinkUtil: 0.15, TempLoC: 55, TempHiC: 90}
}

func linearBin(v, lo, hi float64, bins int) uint8 {
	if v <= lo {
		return 0
	}
	if v >= hi {
		return uint8(bins - 1)
	}
	b := int(float64(bins) * (v - lo) / (hi - lo))
	if b >= bins {
		b = bins - 1
	}
	return uint8(b)
}

// logBin maps a rate in [0,1] to {0,1,2,3} by decade: <0.1% -> 0,
// <1% -> 1, <10% -> 2, else 3.
func logBin(rate float64) uint8 {
	switch {
	case rate < 1e-3:
		return 0
	case rate < 1e-2:
		return 1
	case rate < 1e-1:
		return 2
	default:
		return 3
	}
}

// Discretize converts raw features to a table state.
func (d Discretizer) Discretize(f Features) State {
	return State{
		Buf:     linearBin(f.BufferUtilization, 0, 1, BufBins),
		InLink:  linearBin(f.InputLinkUtil, 0, d.MaxLinkUtil, LinkBins),
		OutLink: linearBin(f.OutputLinkUtil, 0, d.MaxLinkUtil, LinkBins),
		InNACK:  logBin(f.InputNACKRate),
		OutNACK: logBin(f.OutputNACKRate),
		Temp:    linearBin(f.TemperatureC, d.TempLoC, d.TempHiC, TempBins),
	}
}

// Agent is one per-router tabular Q-learning agent. Not safe for
// concurrent use.
type Agent struct {
	q      []float64 // NumStates x NumActions, row-major
	q2     []float64 // second table for Double Q-learning (nil when off)
	visits []uint32  // per (s,a) update counts, shared like q
	rsum   []float64 // per (s,a) reward sums (diagnostics), shared like q

	alpha   float64
	decay   bool
	gamma   float64
	epsilon float64
	rng     *rand.Rand
	src     *snap.CountingSource
	frozen  bool

	hasPrev    bool
	prevState  State
	prevAction int

	updates int64
}

// NewAgent builds an agent with Q-values initialized to zero (per the
// paper's initialization) and a deterministic exploration stream.
func NewAgent(cfg config.RLConfig, seed int64) *Agent {
	a := newLearner(cfg, seed)
	a.q = make([]float64, NumStates*NumActions)
	a.visits = make([]uint32, NumStates*NumActions)
	a.rsum = make([]float64, NumStates*NumActions)
	if cfg.DoubleQ {
		a.q2 = make([]float64, NumStates*NumActions)
	}
	return a
}

// newLearner builds an agent without tables: its exploration stream and
// learning parameters only.
func newLearner(cfg config.RLConfig, seed int64) *Agent {
	src := snap.NewCountingSource(seed)
	return &Agent{
		alpha:   cfg.Alpha,
		decay:   cfg.AlphaDecay,
		gamma:   cfg.Gamma,
		epsilon: cfg.Epsilon,
		rng:     rand.New(src),
		src:     src,
	}
}

// NewSharedAgents builds n agents that share a single Q-table but keep
// independent exploration streams and state/action histories. Sharing
// multiplies the effective sample rate by n, letting the tabular policy
// converge within simulation-scale pre-training budgets (the paper's
// per-router tables rely on a 1M-cycle pre-train); DESIGN.md documents
// this option and the ablation comparing both variants.
func NewSharedAgents(cfg config.RLConfig, n int, seed int64) []*Agent {
	agents := make([]*Agent, n)
	for i := range agents {
		if i == 0 {
			agents[i] = NewAgent(cfg, seed)
			continue
		}
		a := newLearner(cfg, seed+int64(i)*7919)
		a.q, a.q2, a.visits, a.rsum = agents[0].q, agents[0].q2, agents[0].visits, agents[0].rsum
		agents[i] = a
	}
	return agents
}

// Q returns the Q-value for (s, a) — with Double Q-learning, the mean of
// the two tables (the acting estimate).
func (a *Agent) Q(s State, action int) float64 {
	idx := s.Index()*NumActions + action
	if a.q2 != nil {
		return (a.q[idx] + a.q2[idx]) / 2
	}
	return a.q[idx]
}

// Greedy returns the action with maximal Q-value in state s (ties break
// toward the lowest action index, i.e. the cheapest mode).
func (a *Agent) Greedy(s State) int {
	best, bestV := 0, a.Q(s, 0)
	for act := 1; act < NumActions; act++ {
		if v := a.Q(s, act); v > bestV {
			best, bestV = act, v
		}
	}
	return best
}

// Step closes the previous (state, action) with reward r observed in new
// state s, performs the TD update, then selects and records the next
// action (epsilon-greedy unless frozen). It returns the action to apply.
func (a *Agent) Step(s State, reward float64) int {
	if a.hasPrev && !a.frozen {
		a.update(a.prevState, a.prevAction, reward, s)
	}
	action := a.Greedy(s)
	if !a.frozen && a.epsilon > 0 && a.rng.Float64() < a.epsilon {
		action = a.rng.Intn(NumActions)
	}
	a.prevState, a.prevAction, a.hasPrev = s, action, true
	return action
}

// update applies the temporal-difference rule. With AlphaDecay the
// learning rate of each (s,a) cell decays with its visit count (the
// paper: "the learning rate alpha can be reduced over time [for]
// convergence"), approaching a sample average while keeping a floor for
// non-stationarity.
func (a *Agent) update(s State, action int, reward float64, next State) {
	idx := s.Index()*NumActions + action
	// Double Q-learning (van Hasselt 2010): update one table with the
	// other's value of its own argmax, decoupling selection from
	// evaluation and removing the max-operator's overestimation bias.
	target, eval := a.q, a.q
	if a.q2 != nil {
		if a.rng.Intn(2) == 0 {
			target, eval = a.q, a.q2
		} else {
			target, eval = a.q2, a.q
		}
	}
	nextBase := next.Index() * NumActions
	argmax := 0
	for act := 1; act < NumActions; act++ {
		if target[nextBase+act] > target[nextBase+argmax] {
			argmax = act
		}
	}
	maxNext := eval[nextBase+argmax]
	a.rsum[idx] += reward
	alpha := a.alpha
	if a.decay {
		a.visits[idx]++
		alpha = 1 / (1 + float64(a.visits[idx])/4)
		const floor = 0.02
		if alpha < floor {
			alpha = floor
		}
	} else {
		a.visits[idx]++
	}
	target[idx] = (1-alpha)*target[idx] + alpha*(reward+a.gamma*maxNext)
	a.updates++
}

// Updates returns how many TD updates the agent has applied.
func (a *Agent) Updates() int64 { return a.updates }

// SampleStats returns the visit count and empirical mean reward of a
// (state, action) cell — diagnostics for policy debugging.
func (a *Agent) SampleStats(s State, action int) (visits uint32, meanReward float64) {
	idx := s.Index()*NumActions + action
	v := a.visits[idx]
	if v == 0 {
		return 0, 0
	}
	return v, a.rsum[idx] / float64(v)
}

// Freeze stops learning and exploration; the agent becomes a pure greedy
// policy (used to compare against the frozen-after-pretraining DT
// baseline, and for ablations).
func (a *Agent) Freeze() { a.frozen = true }

// Frozen reports whether the agent is frozen.
func (a *Agent) Frozen() bool { return a.frozen }

// SetEpsilon overrides the exploration rate (e.g. to anneal it).
func (a *Agent) SetEpsilon(eps float64) { a.epsilon = eps }

// Reset clears the previous state/action memory (e.g. between simulation
// phases) without touching the learned Q-table.
func (a *Agent) Reset() { a.hasPrev = false }

// Save writes the Q-table in a compact binary format.
func (a *Agent) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr = struct {
		Magic   uint32
		States  uint32
		Actions uint32
	}{0x514C4E43, NumStates, NumActions} // "QLNC"
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return fmt.Errorf("rl: save header: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, a.q); err != nil {
		return fmt.Errorf("rl: save table: %w", err)
	}
	return bw.Flush()
}

// Load replaces the Q-table from a Save'd stream.
func (a *Agent) Load(r io.Reader) error {
	br := bufio.NewReader(r)
	var hdr struct {
		Magic   uint32
		States  uint32
		Actions uint32
	}
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return fmt.Errorf("rl: load header: %w", err)
	}
	if hdr.Magic != 0x514C4E43 {
		return fmt.Errorf("rl: bad magic %#x", hdr.Magic)
	}
	if hdr.States != NumStates || hdr.Actions != NumActions {
		return fmt.Errorf("rl: table shape %dx%d, want %dx%d", hdr.States, hdr.Actions, NumStates, NumActions)
	}
	if err := binary.Read(br, binary.LittleEndian, &a.q); err != nil {
		return fmt.Errorf("rl: load table: %w", err)
	}
	// The persisted format carries one table; under Double Q-learning
	// initialize both estimators from it.
	if a.q2 != nil {
		copy(a.q2, a.q)
	}
	return nil
}

// CopyPolicyFrom copies another agent's Q-table (used to clone pretrained
// policies across routers or runs).
func (a *Agent) CopyPolicyFrom(src *Agent) {
	copy(a.q, src.q)
}
