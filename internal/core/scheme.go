// Package core implements the paper's primary contribution: the proactive
// fault-tolerant control framework. It provides the four schemes the
// evaluation compares — the reactive CRC baseline, the static ARQ+ECC
// router, the supervised decision-tree controller (DiTomaso et al.), and
// the proposed per-router reinforcement-learning controller — plus the
// phase-structured simulation driver (pre-train, warm-up, measure, drain)
// that reproduces the paper's methodology.
package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"rlnoc/internal/config"
	"rlnoc/internal/dt"
	"rlnoc/internal/network"
	"rlnoc/internal/rl"
	"rlnoc/internal/snap"
)

// Scheme names a fault-tolerant design under evaluation.
type Scheme string

// The four schemes of the paper's figures, in bar order.
const (
	// SchemeCRC is the reactive baseline: error detection only at the
	// destination NI, full end-to-end packet retransmission on failure.
	SchemeCRC Scheme = "crc"
	// SchemeARQ is the static ARQ+ECC router: per-hop SECDED with
	// link-level retransmission, always on.
	SchemeARQ Scheme = "arq-ecc"
	// SchemeDT is the supervised decision-tree controller: a regression
	// tree predicts the link error rate and thresholds pick the mode;
	// the tree is frozen after pre-training.
	SchemeDT Scheme = "dt"
	// SchemeRL is the proposed per-router Q-learning controller.
	SchemeRL Scheme = "rl"
)

// SchemeQRoute extends the paper's four schemes with per-router
// Q-routing: the RL mode controller of SchemeRL plus learned next-hop
// selection (Boyan-Littman Q-routing over minimal productive ports, with
// a table-routed escape VC class for deadlock freedom; DESIGN.md §13).
// It is kept out of Schemes() so the paper's figures, suite and golden
// pins stay exactly four bars.
const SchemeQRoute Scheme = "qroute"

// Schemes returns all schemes in the paper's presentation order.
func Schemes() []Scheme { return []Scheme{SchemeCRC, SchemeARQ, SchemeDT, SchemeRL} }

// AllSchemes returns every scheme the simulator implements: the paper's
// four plus the qroute extension.
func AllSchemes() []Scheme { return append(Schemes(), SchemeQRoute) }

// ParseScheme converts a string to a Scheme.
func ParseScheme(s string) (Scheme, error) {
	for _, sc := range AllSchemes() {
		if string(sc) == s {
			return sc, nil
		}
	}
	return "", fmt.Errorf("core: unknown scheme %q (want crc|arq-ecc|dt|rl|qroute)", s)
}

// reliabilityWeight scales the residual-corruption rate in the RL reward.
// It restores the cost a Mode 0 router externalizes: the end-to-end
// retransmission its corruption triggers lands mostly on other routers'
// latency and energy, plus congestion knock-ons and core stalls the
// zero-load analytic model cannot see. Calibrated empirically so the
// Mode 0 / Mode 1 reward crossover lands near p ~ 2e-3, where the
// measured static-mode sweep shows ECC starting to win end to end; in
// the reward's units Mode 1 costs ~1.75x Mode 0 on a busy link, so
// 1 + k * 0.002 = 1.75 gives k in the several-hundred range. Clean links
// (p <= a few 1e-4) keep a comfortable Mode 0 margin either way.
const reliabilityWeight = 400

// featureVector flattens the Table-I features for the decision tree.
func featureVector(f rl.Features) []float64 {
	return []float64{
		f.BufferUtilization,
		f.InputLinkUtil,
		f.OutputLinkUtil,
		f.InputNACKRate,
		f.OutputNACKRate,
		f.TemperatureC,
	}
}

// --- RL controller --------------------------------------------------------

// RLController is the proposed controller: one Q-learning agent per
// router, epsilon-greedy over the four operation modes, rewarded with
// 1/(latency x power) per Eq. (3).
type RLController struct {
	agents []*rl.Agent
	disc   rl.Discretizer
	// ModeMask restricts the action space (for the mode-subset ablation);
	// a zero value allows all four modes.
	ModeMask uint8

	// Telemetry: decisions per mode and the reward observed after each
	// mode (credited to the previous epoch's action).
	decideCount [int(network.NumModes)]int64
	rewardSum   [int(network.NumModes)]float64
	rewardCount [int(network.NumModes)]int64
	prevAction  []int
	visits      map[rl.State]int64
}

// NewRLController builds the per-router agents (shared Q-table if
// configured).
func NewRLController(cfg config.Config, routers int) *RLController {
	var agents []*rl.Agent
	if cfg.RL.SharedTable {
		agents = rl.NewSharedAgents(cfg.RL, routers, cfg.Seed*31+500)
	} else {
		agents = make([]*rl.Agent, routers)
		for i := range agents {
			agents[i] = rl.NewAgent(cfg.RL, cfg.Seed*31+500+int64(i)*7919)
		}
	}
	prev := make([]int, routers)
	for i := range prev {
		prev[i] = -1
	}
	return &RLController{agents: agents, disc: rl.DefaultDiscretizer(), prevAction: prev,
		visits: make(map[rl.State]int64)}
}

// PolicyDump renders the most-visited states with their Q-rows and greedy
// action — a debugging view of what the policy learned.
func (c *RLController) PolicyDump(top int) string {
	type sv struct {
		s rl.State
		n int64
	}
	var all []sv
	for s, n := range c.visits {
		all = append(all, sv{s, n})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n })
	if top > len(all) {
		top = len(all)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "distinct states visited: %d\n", len(all))
	fmt.Fprintf(&b, "%-34s %8s  %-8s %s\n", "state(buf,in,out,inN,outN,temp)", "visits", "greedy", "Q-row")
	a := c.agents[0]
	for _, e := range all[:top] {
		fmt.Fprintf(&b, "(%d,%d,%d,%d,%d,%d)%24s %8d  mode%-4d [%.2f %.2f %.2f %.2f]",
			e.s.Buf, e.s.InLink, e.s.OutLink, e.s.InNACK, e.s.OutNACK, e.s.Temp, "",
			e.n, a.Greedy(e.s),
			a.Q(e.s, 0), a.Q(e.s, 1), a.Q(e.s, 2), a.Q(e.s, 3))
		fmt.Fprintf(&b, "  r=[")
		for act := 0; act < rl.NumActions; act++ {
			v, mr := a.SampleStats(e.s, act)
			fmt.Fprintf(&b, "%.2f/%d ", mr, v)
		}
		fmt.Fprintf(&b, "]\n")
	}
	return b.String()
}

// Reward implements Eq. (3): the reciprocal of the router's mean
// end-to-end packet latency times its power consumption. Inputs are
// floored to keep the reward finite on idle epochs.
func Reward(latencyCycles, powerW float64) float64 {
	if latencyCycles < 1 {
		latencyCycles = 1
	}
	if powerW < 1e-4 {
		powerW = 1e-4
	}
	return 1 / (latencyCycles * powerW)
}

// Decide implements network.Controller.
func (c *RLController) Decide(id int, obs network.Observation) network.Mode {
	s := c.disc.Discretize(obs.Features)
	c.visits[s]++
	r := Reward(obs.WindowLatency, obs.ControlPowerW)
	if obs.NetMeanReward > 0 {
		// Advantage-style normalization: dividing by the network-wide
		// mean reward cancels epoch-wide fluctuations (traffic phases,
		// thermal drift) that are shared across all actions and would
		// otherwise dominate the per-action signal.
		r /= obs.NetMeanReward
	}
	// Reliability term (Section IV.A: the return is a function of energy,
	// performance *and reliability*): corrupted flits this router let
	// through on ECC-bypassed links cost a full end-to-end packet
	// retransmission each — a cost otherwise diluted across the packet's
	// whole path and invisible to the guilty router's own latency/power.
	r /= 1 + reliabilityWeight*obs.ResidualErrorRate
	if prev := c.prevAction[id]; prev >= 0 {
		c.rewardSum[prev] += r
		c.rewardCount[prev]++
	}
	action := c.agents[id].Step(s, r)
	if c.ModeMask != 0 {
		for (c.ModeMask>>uint(action))&1 == 0 {
			action = (action + 3) % int(network.NumModes) // step down toward cheaper modes
		}
	}
	c.decideCount[action]++
	c.prevAction[id] = action
	return network.Mode(action)
}

// ResetTelemetry zeroes the decision/reward counters (called at the start
// of the measurement phase so reports reflect testing-phase behavior).
func (c *RLController) ResetTelemetry() {
	c.decideCount = [int(network.NumModes)]int64{}
	c.rewardSum = [int(network.NumModes)]float64{}
	c.rewardCount = [int(network.NumModes)]int64{}
}

// Telemetry returns, per mode, how often it was chosen and the mean
// reward observed in the epoch following it.
func (c *RLController) Telemetry() (counts [int(network.NumModes)]int64, meanReward [int(network.NumModes)]float64) {
	counts = c.decideCount
	for m := range meanReward {
		if c.rewardCount[m] > 0 {
			meanReward[m] = c.rewardSum[m] / float64(c.rewardCount[m])
		}
	}
	return counts, meanReward
}

// Freeze stops all agents from learning and exploring.
func (c *RLController) Freeze() {
	for _, a := range c.agents {
		a.Freeze()
	}
}

// SetEpsilon overrides every agent's exploration rate (used to anneal
// exploration when the measured testing phase begins).
func (c *RLController) SetEpsilon(eps float64) {
	for _, a := range c.agents {
		a.SetEpsilon(eps)
	}
}

// Agents exposes the underlying agents (for persistence and inspection).
func (c *RLController) Agents() []*rl.Agent { return c.agents }

// SavePolicy writes every agent's Q-table (shared tables write identical
// copies, keeping the format uniform).
func (c *RLController) SavePolicy(w io.Writer) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(c.agents))); err != nil {
		return fmt.Errorf("core: save policy: %w", err)
	}
	for _, a := range c.agents {
		if err := a.Save(w); err != nil {
			return err
		}
	}
	return nil
}

// LoadPolicy restores agent Q-tables written by SavePolicy. The agent
// count must match.
func (c *RLController) LoadPolicy(r io.Reader) error {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return fmt.Errorf("core: load policy: %w", err)
	}
	if int(n) != len(c.agents) {
		return fmt.Errorf("core: policy has %d agents, controller has %d", n, len(c.agents))
	}
	for _, a := range c.agents {
		if err := a.Load(r); err != nil {
			return err
		}
	}
	return nil
}

// --- DT controller --------------------------------------------------------

// DTController is the supervised baseline. During pre-training it applies
// random modes from {0,1,2} (Mode 3 suppresses the very errors being
// labeled) while recording (features -> measured error rate) samples; a
// call to FinishTraining fits the regression tree, after which the
// controller runs the frozen threshold policy.
type DTController struct {
	collecting bool
	rng        *rand.Rand
	src        *snap.CountingSource // rng's source; checkpoints record its draw count
	samples    []dt.Sample
	prevFeat   [][]float64
	policy     *dt.Policy
	opts       dt.Options

	decideCount [int(network.NumModes)]int64
}

// NewDTController builds a collecting controller for `routers` routers.
func NewDTController(cfg config.Config, routers int) *DTController {
	src := snap.NewCountingSource(cfg.Seed*31 + 700)
	return &DTController{
		collecting: true,
		rng:        rand.New(src),
		src:        src,
		prevFeat:   make([][]float64, routers),
		opts:       dt.DefaultOptions(),
	}
}

// Decide implements network.Controller.
func (c *DTController) Decide(id int, obs network.Observation) network.Mode {
	x := featureVector(obs.Features)
	if c.collecting {
		if c.prevFeat[id] != nil {
			c.samples = append(c.samples, dt.Sample{X: c.prevFeat[id], Y: obs.MeasuredErrorRate})
		}
		c.prevFeat[id] = x
		return network.Mode(c.rng.Intn(3)) // explore modes 0..2
	}
	m := c.policy.Mode(x)
	c.decideCount[m]++
	return network.Mode(m)
}

// FinishTraining fits the tree on the collected samples and freezes the
// controller. It fails if pre-training produced no samples.
func (c *DTController) FinishTraining() error {
	if !c.collecting {
		return nil
	}
	tree, err := dt.Train(c.samples, c.opts)
	if err != nil {
		return fmt.Errorf("core: DT pre-training: %w", err)
	}
	c.policy = &dt.Policy{Tree: tree, Thresholds: dt.DefaultThresholds()}
	c.collecting = false
	return nil
}

// Samples returns how many labeled examples were collected. A controller
// restored from a checkpoint taken after training reports 0: the
// checkpoint keeps the trained tree, not its training set.
func (c *DTController) Samples() int { return len(c.samples) }

// Tree returns the trained tree (nil while collecting).
func (c *DTController) Tree() *dt.Tree {
	if c.policy == nil {
		return nil
	}
	return c.policy.Tree
}

// --- scheme wiring ---------------------------------------------------------

// buildController instantiates the controller, controller-energy kind and
// ECC-hardware flag for a scheme.
func buildController(scheme Scheme, cfg config.Config) (network.Controller, network.ControllerKind, bool, error) {
	routers := cfg.Routers()
	switch scheme {
	case SchemeCRC:
		return network.StaticController{Fixed: network.Mode0}, network.ControllerNone, false, nil
	case SchemeARQ:
		return network.StaticController{Fixed: network.Mode1}, network.ControllerNone, true, nil
	case SchemeDT:
		return NewDTController(cfg, routers), network.ControllerDT, true, nil
	case SchemeRL:
		return NewRLController(cfg, routers), network.ControllerRL, true, nil
	case SchemeQRoute:
		// Same mode controller as SchemeRL: chaos head-to-heads then
		// isolate the routing policy as the only difference.
		return NewRLController(cfg, routers), network.ControllerRL, true, nil
	default:
		return nil, network.ControllerNone, false, fmt.Errorf("core: unknown scheme %q", scheme)
	}
}
