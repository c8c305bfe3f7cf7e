// Package traffic produces the workloads driving the simulator: classic
// synthetic patterns (uniform random, transpose, bit-complement, ...) used
// for pre-training, and PARSEC-like application traces.
//
// The paper evaluates on real PARSEC traces captured from a 64-core
// full-system run; those traces are proprietary to the authors' toolchain.
// As documented in DESIGN.md, this package substitutes a calibrated
// synthetic model per benchmark — per-node ON/OFF burst processes with
// benchmark-specific injection intensity, spatial locality and hotspot
// behavior — which preserves what the evaluation consumes: streams of
// (cycle, src, dst, size) injections whose relative intensity
// differentiates the benchmarks.
package traffic

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"rlnoc/internal/detrand"
	"rlnoc/internal/topology"
)

// Event is one packet-injection request presented to a network interface.
type Event struct {
	Cycle int64
	Src   int
	Dst   int
	Flits int
}

// Pattern names a synthetic destination pattern.
type Pattern string

// Supported synthetic patterns.
const (
	Uniform       Pattern = "uniform"
	Transpose     Pattern = "transpose"
	BitComplement Pattern = "bitcomplement"
	BitReverse    Pattern = "bitreverse"
	Shuffle       Pattern = "shuffle"
	Hotspot       Pattern = "hotspot"
	Neighbor      Pattern = "neighbor"
	Tornado       Pattern = "tornado"
)

// Patterns lists every supported synthetic pattern.
func Patterns() []Pattern {
	return []Pattern{Uniform, Transpose, BitComplement, BitReverse, Shuffle, Hotspot, Neighbor, Tornado}
}

// hotspotFraction is the share of Hotspot-pattern traffic aimed at the
// designated hot nodes.
const hotspotFraction = 0.3

// destination computes the destination for src under the pattern; for
// stochastic patterns it consumes the RNG. Returns ok=false if the pattern
// maps src to itself (the caller skips the injection). rng is a concrete
// *detrand.Stream, not a detrand.Source: through the interface the
// caller's per-(source, cycle) stream would escape to the heap.
func destination(m topology.Topology, p Pattern, src int, rng *detrand.Stream) (int, bool) {
	n := m.Nodes()
	w, h := m.Dims()
	switch p {
	case Uniform:
		if n == 1 {
			return 0, false
		}
		d := rng.Intn(n - 1)
		if d >= src {
			d++
		}
		return d, true
	case Transpose:
		c := m.Coord(src)
		if c.X >= h || c.Y >= w {
			// Non-square fabrics: fall back to uniform for unmappable nodes.
			return destination(m, Uniform, src, rng)
		}
		d := m.ID(topology.Coord{X: c.Y, Y: c.X})
		return d, d != src
	case BitComplement:
		if n&(n-1) != 0 {
			return destination(m, Uniform, src, rng)
		}
		d := (^src) & (n - 1)
		return d, d != src
	case BitReverse:
		if n&(n-1) != 0 {
			return destination(m, Uniform, src, rng)
		}
		bits := 0
		for 1<<uint(bits) < n {
			bits++
		}
		d := 0
		for b := 0; b < bits; b++ {
			if src&(1<<uint(b)) != 0 {
				d |= 1 << uint(bits-1-b)
			}
		}
		return d, d != src
	case Shuffle:
		if n&(n-1) != 0 {
			return destination(m, Uniform, src, rng)
		}
		d := ((src << 1) | (src >> uint(log2(n)-1))) & (n - 1)
		return d, d != src
	case Hotspot:
		// A handful of hot nodes near the center receive extra traffic.
		hot := []int{m.ID(topology.Coord{X: w / 2, Y: h / 2})}
		if w > 2 && h > 2 {
			hot = append(hot, m.ID(topology.Coord{X: w/2 - 1, Y: h / 2}))
		}
		if rng.Float64() < hotspotFraction {
			d := hot[rng.Intn(len(hot))]
			if d != src {
				return d, true
			}
		}
		return destination(m, Uniform, src, rng)
	case Neighbor:
		c := m.Coord(src)
		d := m.ID(topology.Coord{X: (c.X + 1) % w, Y: c.Y})
		return d, d != src
	case Tornado:
		c := m.Coord(src)
		shift := (w+1)/2 - 1
		if shift < 1 {
			shift = 1
		}
		d := m.ID(topology.Coord{X: (c.X + shift) % w, Y: c.Y})
		return d, d != src
	default:
		return 0, false
	}
}

func log2(n int) int {
	b := 0
	for 1<<uint(b) < n {
		b++
	}
	return b
}

// Synthetic generates a cycle-sorted trace for a synthetic pattern.
// rate is packets per node per cycle; flits is the packet size.
func Synthetic(m topology.Topology, p Pattern, rate float64, flits int, cycles int64, seed int64) ([]Event, error) {
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("traffic: rate %g outside [0,1]", rate)
	}
	if flits < 1 {
		return nil, fmt.Errorf("traffic: flits %d < 1", flits)
	}
	if cycles < 0 {
		return nil, fmt.Errorf("traffic: negative duration %d", cycles)
	}
	// Each (cycle, src) pair draws from its own counter-based stream, so
	// a node's injection decision is a pure function of (seed, node,
	// cycle) — independent of every other node's draws, and stable under
	// any future reordering or parallelization of trace generation.
	var events []Event
	for cycle := int64(0); cycle < cycles; cycle++ {
		for src := 0; src < m.Nodes(); src++ {
			rng := detrand.New(seed, detrand.DomainTraffic, uint64(src), uint64(cycle))
			if rng.Float64() >= rate {
				continue
			}
			dst, ok := destination(m, p, src, &rng)
			if !ok {
				continue
			}
			events = append(events, Event{Cycle: cycle, Src: src, Dst: dst, Flits: flits})
		}
	}
	return events, nil
}

// Benchmark describes one PARSEC-like workload's traffic character.
type Benchmark struct {
	Name string
	// RatePktPerKCycle is the per-node injection rate while bursting,
	// in packets per 1000 cycles.
	RatePktPerKCycle float64
	// BurstOnProb / BurstOffProb are the per-cycle probabilities of
	// entering/leaving a burst (ON/OFF Markov process); their ratio sets
	// the duty cycle.
	BurstOnProb  float64
	BurstOffProb float64
	// Locality is the probability a packet targets a node within
	// Manhattan radius 2 of the source (data sharing between neighbors).
	Locality float64
	// HotspotProb is the probability a packet targets the memory
	// controller tiles (mesh corners).
	HotspotProb float64
	// ShortFrac is the fraction of single-flit (request/coherence)
	// packets; the rest are full data packets.
	ShortFrac float64
}

// Benchmarks returns the nine PARSEC-like workloads, ordered as the
// paper's figures list them. Intensities are calibrated so the busiest
// benchmark stays under ~0.3 flits/cycle/link on the 8x8 mesh, the
// paper's observed maximum link utilization.
func Benchmarks() []Benchmark {
	return []Benchmark{
		{Name: "blackscholes", RatePktPerKCycle: 3.0, BurstOnProb: 0.004, BurstOffProb: 0.012, Locality: 0.3, HotspotProb: 0.10, ShortFrac: 0.5},
		{Name: "bodytrack", RatePktPerKCycle: 6.5, BurstOnProb: 0.006, BurstOffProb: 0.010, Locality: 0.4, HotspotProb: 0.12, ShortFrac: 0.4},
		{Name: "canneal", RatePktPerKCycle: 11.0, BurstOnProb: 0.010, BurstOffProb: 0.006, Locality: 0.1, HotspotProb: 0.20, ShortFrac: 0.3},
		{Name: "dedup", RatePktPerKCycle: 8.5, BurstOnProb: 0.012, BurstOffProb: 0.010, Locality: 0.3, HotspotProb: 0.15, ShortFrac: 0.4},
		{Name: "ferret", RatePktPerKCycle: 7.0, BurstOnProb: 0.008, BurstOffProb: 0.010, Locality: 0.35, HotspotProb: 0.12, ShortFrac: 0.4},
		{Name: "fluidanimate", RatePktPerKCycle: 5.5, BurstOnProb: 0.005, BurstOffProb: 0.010, Locality: 0.6, HotspotProb: 0.08, ShortFrac: 0.45},
		{Name: "streamcluster", RatePktPerKCycle: 10.0, BurstOnProb: 0.015, BurstOffProb: 0.008, Locality: 0.2, HotspotProb: 0.18, ShortFrac: 0.3},
		{Name: "swaptions", RatePktPerKCycle: 3.8, BurstOnProb: 0.004, BurstOffProb: 0.010, Locality: 0.4, HotspotProb: 0.08, ShortFrac: 0.5},
		{Name: "x264", RatePktPerKCycle: 9.0, BurstOnProb: 0.010, BurstOffProb: 0.007, Locality: 0.35, HotspotProb: 0.14, ShortFrac: 0.35},
	}
}

// BenchmarkByName finds a benchmark by name.
func BenchmarkByName(name string) (Benchmark, error) {
	for _, b := range Benchmarks() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("traffic: unknown benchmark %q", name)
}

// Trace synthesizes the benchmark's injection trace over the fabric.
// dataFlits is the full data-packet size (Table II: 4 flits).
func (b Benchmark) Trace(m topology.Topology, cycles int64, dataFlits int, seed int64) ([]Event, error) {
	if dataFlits < 1 {
		return nil, fmt.Errorf("traffic: dataFlits %d < 1", dataFlits)
	}
	if cycles < 0 {
		return nil, fmt.Errorf("traffic: negative duration %d", cycles)
	}
	n := m.Nodes()
	bursting := make([]bool, n)
	// Start some nodes mid-burst so traces don't begin silent. The
	// initial states draw from a dedicated init domain keyed per node.
	duty := b.BurstOnProb / (b.BurstOnProb + b.BurstOffProb)
	for i := range bursting {
		init := detrand.New(seed, detrand.DomainTrafficInit, uint64(i), 0)
		bursting[i] = init.Float64() < duty
	}
	hot := hotNodes(m)
	rate := b.RatePktPerKCycle / 1000
	var events []Event
	for cycle := int64(0); cycle < cycles; cycle++ {
		for src := 0; src < n; src++ {
			// One keyed stream per (cycle, src), as in Synthetic.
			rng := detrand.New(seed, detrand.DomainTraffic, uint64(src), uint64(cycle))
			if bursting[src] {
				if rng.Float64() < b.BurstOffProb {
					bursting[src] = false
				}
			} else {
				if rng.Float64() < b.BurstOnProb {
					bursting[src] = true
				}
				continue
			}
			if rng.Float64() >= rate {
				continue
			}
			dst := b.pickDst(m, src, hot, &rng)
			if dst == src {
				continue
			}
			flits := dataFlits
			if rng.Float64() < b.ShortFrac {
				flits = 1
			}
			events = append(events, Event{Cycle: cycle, Src: src, Dst: dst, Flits: flits})
		}
	}
	return events, nil
}

// hotNodes returns the grid-corner tiles, standing in for memory
// controllers.
func hotNodes(m topology.Topology) []int {
	w, h := m.Dims()
	return []int{
		m.ID(topology.Coord{X: 0, Y: 0}),
		m.ID(topology.Coord{X: w - 1, Y: 0}),
		m.ID(topology.Coord{X: 0, Y: h - 1}),
		m.ID(topology.Coord{X: w - 1, Y: h - 1}),
	}
}

func (b Benchmark) pickDst(m topology.Topology, src int, hot []int, rng *detrand.Stream) int {
	r := rng.Float64()
	switch {
	case r < b.HotspotProb:
		return hot[rng.Intn(len(hot))]
	case r < b.HotspotProb+b.Locality:
		// A node within Manhattan radius 2.
		c := m.Coord(src)
		w, h := m.Dims()
		for attempt := 0; attempt < 8; attempt++ {
			dx := rng.Intn(5) - 2
			dy := rng.Intn(5) - 2
			if dx == 0 && dy == 0 {
				continue
			}
			nc := topology.Coord{X: c.X + dx, Y: c.Y + dy}
			if nc.X < 0 || nc.X >= w || nc.Y < 0 || nc.Y >= h {
				continue
			}
			return m.ID(nc)
		}
		fallthrough
	default:
		d := rng.Intn(m.Nodes())
		return d
	}
}

// Validate checks a trace against a fabric: in-range endpoints, positive
// sizes, non-decreasing cycles.
func Validate(m topology.Topology, events []Event) error {
	var prev int64 = -1
	for i, e := range events {
		if e.Cycle < prev {
			return fmt.Errorf("traffic: event %d cycle %d before %d", i, e.Cycle, prev)
		}
		prev = e.Cycle
		if e.Src < 0 || e.Src >= m.Nodes() || e.Dst < 0 || e.Dst >= m.Nodes() {
			return fmt.Errorf("traffic: event %d endpoints (%d,%d) outside fabric", i, e.Src, e.Dst)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("traffic: event %d is a self-send at node %d", i, e.Src)
		}
		if e.Flits < 1 {
			return fmt.Errorf("traffic: event %d has %d flits", i, e.Flits)
		}
	}
	return nil
}

// OfferedLoad returns the trace's average offered load in flits per node
// per cycle.
func OfferedLoad(m topology.Topology, events []Event, cycles int64) float64 {
	if cycles <= 0 || m.Nodes() == 0 {
		return 0
	}
	var flits int64
	for _, e := range events {
		flits += int64(e.Flits)
	}
	return float64(flits) / float64(cycles) / float64(m.Nodes())
}

// WriteTrace serializes events as "cycle src dst flits" lines.
func WriteTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# rlnoc trace v1: cycle src dst flits"); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d\n", e.Cycle, e.Src, e.Dst, e.Flits); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a trace written by WriteTrace. Events are re-sorted by
// cycle (stable) to tolerate hand-edited files.
func ReadTrace(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		var e Event
		if _, err := fmt.Sscanf(text, "%d %d %d %d", &e.Cycle, &e.Src, &e.Dst, &e.Flits); err != nil {
			return nil, fmt.Errorf("traffic: line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Cycle < events[j].Cycle })
	return events, nil
}
