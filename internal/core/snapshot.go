package core

// Checkpoint/restore for the simulation driver (DESIGN.md §15). The Sim
// snapshot is self-contained: it embeds the Config (as JSON), the scheme,
// the full test trace and injector cursors, the measurement-phase
// bookkeeping, the controller state and the complete network state — so
// RestoreSim needs nothing but the snapshot stream to rebuild a Sim in a
// fresh process and ResumeMeasure continues bit-identically to the run
// that wrote it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"rlnoc/internal/config"
	"rlnoc/internal/dt"
	"rlnoc/internal/eventlog"
	"rlnoc/internal/network"
	"rlnoc/internal/rl"
	"rlnoc/internal/snap"
	"rlnoc/internal/traffic"
)

// SetSnapshotPolicy enables periodic checkpoints: every `every` cycles
// of a measurement phase, the full simulation state is written into dir
// (atomically, via rename). every <= 0 disables.
func (s *Sim) SetSnapshotPolicy(dir string, every int64) {
	s.snapDir = dir
	s.snapEvery = every
}

// LastSnapshotPath returns the most recent checkpoint written by the
// snapshot policy ("" if none yet) — the restart point for the
// invariant-bisection flow.
func (s *Sim) LastSnapshotPath() string { return s.lastSnap }

func (s *Sim) writeAutoSnapshot() error {
	path, err := s.SaveSnapshotIn(s.snapDir)
	if err != nil {
		return err
	}
	s.lastSnap = path
	return nil
}

// SaveSnapshotIn writes a checkpoint into dir under the canonical
// cycle-stamped name and returns its path. The campaign supervisor uses
// this for suspend snapshots (graceful shutdown, watchdog stall-kill):
// an aborted Sim sits at an inter-cycle boundary, so the file it writes
// is indistinguishable from a policy-driven checkpoint at that cycle.
func (s *Sim) SaveSnapshotIn(dir string) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("snapshot-%012d.rlns", s.net.Cycle()))
	if err := s.SaveSnapshot(path); err != nil {
		return "", err
	}
	return path, nil
}

// SaveSnapshot writes the complete simulation state to path, creating
// parent directories as needed. The write is durable and atomic
// (tmp + fsync + rename, see snap.WriteFileAtomic): a crash — even a
// SIGKILL — mid-write never leaves a truncated file under the final
// name.
func (s *Sim) SaveSnapshot(path string) error {
	return snap.WriteFileAtomic(path, s.SnapState)
}

// SnapState serializes the full simulation: header, config, scheme,
// measurement phase, controller, then the network.
func (s *Sim) SnapState(w *snap.Writer) error {
	cfgJSON, err := json.Marshal(s.cfg)
	if err != nil {
		return fmt.Errorf("core: snapshot config: %w", err)
	}
	w.Header()
	w.Section("CORE")
	w.Bytes(cfgJSON)
	w.String(string(s.scheme))

	w.Section("MEAS")
	w.Bool(s.ms != nil)
	if s.ms != nil {
		snapMeasure(w, s.ms)
	}

	if err := s.snapController(w); err != nil {
		return err
	}
	return s.net.SnapState(w)
}

// snapBytes serializes the simulation into memory.
func (s *Sim) snapBytes() ([]byte, error) {
	var buf bytes.Buffer
	w := snap.NewWriter(&buf)
	if err := s.SnapState(w); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func snapMeasure(w *snap.Writer, ms *measureState) {
	w.String(ms.label)
	w.Len(len(ms.events))
	for _, e := range ms.events {
		w.I64(e.Cycle)
		w.Int(e.Src)
		w.Int(e.Dst)
		w.Int(e.Flits)
	}
	w.Ints(ms.in.heads)
	w.Int(ms.in.remaining)
	w.I64(ms.base)
	w.I64(ms.warmEnd)
	w.I64(ms.capCycle)
	w.F64(ms.dynStart)
	w.F64(ms.totStart)
	w.I64(ms.measureStart)
	w.Bool(ms.started)
	w.Bool(ms.drained)
}

func (s *Sim) restoreMeasure(r *snap.Reader) {
	ms := &measureState{}
	ms.label = r.String()
	n := r.Len()
	if r.Err() != nil {
		return
	}
	routers := s.cfg.Routers()
	ms.events = make([]traffic.Event, n)
	for i := range ms.events {
		e := traffic.Event{Cycle: r.I64(), Src: r.Int(), Dst: r.Int(), Flits: r.Int()}
		if r.Err() != nil {
			return
		}
		if e.Src < 0 || e.Src >= routers || e.Dst < 0 || e.Dst >= routers {
			r.Fail(fmt.Errorf("core: snapshot trace event %d out of range", i))
			return
		}
		ms.events[i] = e
	}
	heads := r.Ints()
	remaining := r.Int()
	ms.base = r.I64()
	ms.warmEnd = r.I64()
	ms.capCycle = r.I64()
	ms.dynStart = r.F64()
	ms.totStart = r.F64()
	ms.measureStart = r.I64()
	ms.started = r.Bool()
	ms.drained = r.Bool()
	if r.Err() != nil {
		return
	}
	ms.in = newInjector(ms.events, routers, s.cfg.SourceWindow, ms.base)
	if len(heads) != len(ms.in.heads) {
		r.Fail(fmt.Errorf("core: snapshot injector has %d sources, config has %d",
			len(heads), len(ms.in.heads)))
		return
	}
	for src, h := range heads {
		if h < 0 || h > len(ms.in.queues[src]) {
			r.Fail(fmt.Errorf("core: snapshot injector head %d out of range", src))
			return
		}
	}
	copy(ms.in.heads, heads)
	ms.in.remaining = remaining
	s.ms = ms
}

// snapController dispatches on the concrete controller type. Static
// controllers (crc, arq-ecc, pinned-mode ablations) are stateless — the
// section tag alone keeps the stream positions aligned. Only the
// per-port RL ablation controller is not checkpointable.
func (s *Sim) snapController(w *snap.Writer) error {
	switch c := s.ctrl.(type) {
	case network.StaticController:
		w.Section("SCTL")
		return w.Err()
	case *RLController:
		return c.SnapState(w)
	case *DTController:
		return c.SnapState(w)
	default:
		return fmt.Errorf("core: snapshot unsupported for scheme %q (%T controller)", s.scheme, s.ctrl)
	}
}

func (s *Sim) restoreController(r *snap.Reader) error {
	switch c := s.ctrl.(type) {
	case network.StaticController:
		r.Section("SCTL")
		return r.Err()
	case *RLController:
		return c.SnapRestore(r)
	case *DTController:
		return c.SnapRestore(r)
	default:
		return fmt.Errorf("core: restore unsupported for scheme %q (%T controller)", s.scheme, s.ctrl)
	}
}

// stateKey packs a discretized RL state into a sortable integer.
func stateKey(s rl.State) uint64 {
	return uint64(s.Buf)<<40 | uint64(s.InLink)<<32 | uint64(s.OutLink)<<24 |
		uint64(s.InNACK)<<16 | uint64(s.OutNACK)<<8 | uint64(s.Temp)
}

// tableReps computes, per agent, the index of the first agent whose
// Q-table it shares (itself if unshared) — the canonical encoding of the
// sharing structure, independent of how the tables were allocated.
func (c *RLController) tableReps() []int {
	rep := make([]int, len(c.agents))
	for i, a := range c.agents {
		rep[i] = i
		for j := 0; j < i; j++ {
			if a.SharesTableWith(c.agents[j]) {
				rep[i] = j
				break
			}
		}
	}
	return rep
}

// SnapState serializes the controller: shared-table groups (each table
// written once, by its first owner), per-agent learner state, and the
// telemetry the Result reports.
func (c *RLController) SnapState(w *snap.Writer) error {
	w.Section("RLCT")
	w.Len(len(c.agents))
	rep := c.tableReps()
	w.Ints(rep)
	for i, a := range c.agents {
		if rep[i] == i {
			a.SnapTable(w)
		}
	}
	for _, a := range c.agents {
		a.SnapLocal(w)
	}
	w.U8(c.ModeMask)
	for _, v := range c.decideCount {
		w.I64(v)
	}
	for _, v := range c.rewardSum {
		w.F64(v)
	}
	for _, v := range c.rewardCount {
		w.I64(v)
	}
	w.Ints(c.prevAction)
	keys := make([]rl.State, 0, len(c.visits))
	for s := range c.visits {
		keys = append(keys, s)
	}
	sort.Slice(keys, func(i, j int) bool { return stateKey(keys[i]) < stateKey(keys[j]) })
	w.Len(len(keys))
	for _, st := range keys {
		w.U8(st.Buf)
		w.U8(st.InLink)
		w.U8(st.OutLink)
		w.U8(st.InNACK)
		w.U8(st.OutNACK)
		w.U8(st.Temp)
		w.I64(c.visits[st])
	}
	return w.Err()
}

// SnapRestore overwrites a freshly constructed controller. The sharing
// structure must match the snapshot's (it is config-derived, so a Sim
// rebuilt from the embedded config always matches).
func (c *RLController) SnapRestore(r *snap.Reader) error {
	r.Section("RLCT")
	r.LenCheck(len(c.agents))
	rep := r.Ints()
	if r.Err() != nil {
		return r.Err()
	}
	want := c.tableReps()
	if len(rep) != len(want) {
		return fmt.Errorf("core: snapshot has %d agents, controller has %d", len(rep), len(want))
	}
	for i := range rep {
		if rep[i] != want[i] {
			return fmt.Errorf("core: snapshot table sharing differs at agent %d (snapshot group %d, controller group %d)",
				i, rep[i], want[i])
		}
	}
	for i, a := range c.agents {
		if rep[i] == i {
			a.SnapRestoreTable(r)
		}
	}
	for _, a := range c.agents {
		a.SnapRestoreLocal(r)
	}
	c.ModeMask = r.U8()
	for i := range c.decideCount {
		c.decideCount[i] = r.I64()
	}
	for i := range c.rewardSum {
		c.rewardSum[i] = r.F64()
	}
	for i := range c.rewardCount {
		c.rewardCount[i] = r.I64()
	}
	r.IntsInto(c.prevAction)
	nv := r.Len()
	if r.Err() != nil {
		return r.Err()
	}
	c.visits = make(map[rl.State]int64, nv)
	for i := 0; i < nv; i++ {
		st := rl.State{Buf: r.U8(), InLink: r.U8(), OutLink: r.U8(),
			InNACK: r.U8(), OutNACK: r.U8(), Temp: r.U8()}
		c.visits[st] = r.I64()
		if r.Err() != nil {
			return r.Err()
		}
	}
	return r.Err()
}

// SnapState serializes the DT controller: the phase flag, the sampler's
// draw count, each router's pending feature vector and, while collecting,
// the labeled samples — or, once trained, the frozen tree and its mode
// thresholds — then the decision telemetry. A checkpoint therefore
// resumes mid-pretrain as well as mid-measure.
func (c *DTController) SnapState(w *snap.Writer) error {
	w.Section("DTCT")
	w.Bool(c.collecting)
	c.src.Snap(w)
	w.Len(len(c.prevFeat))
	for _, x := range c.prevFeat {
		w.F64s(x)
	}
	if c.collecting {
		w.Len(len(c.samples))
		for _, smp := range c.samples {
			w.F64s(smp.X)
			w.F64(smp.Y)
		}
	} else {
		c.policy.Tree.Snap(w)
		for _, th := range c.policy.Thresholds {
			w.F64(th)
		}
	}
	for _, v := range c.decideCount {
		w.I64(v)
	}
	return w.Err()
}

// SnapRestore overwrites a freshly constructed DT controller.
func (c *DTController) SnapRestore(r *snap.Reader) error {
	r.Section("DTCT")
	c.collecting = r.Bool()
	c.src.Unsnap(r)
	r.LenCheck(len(c.prevFeat))
	for i := range c.prevFeat {
		c.prevFeat[i] = r.F64s()
	}
	c.samples, c.policy = nil, nil
	if c.collecting {
		n := r.Len()
		if r.Err() != nil {
			return r.Err()
		}
		c.samples = make([]dt.Sample, n)
		for i := range c.samples {
			c.samples[i] = dt.Sample{X: r.F64s(), Y: r.F64()}
		}
	} else if tree := dt.UnsnapTree(r); tree != nil {
		c.policy = &dt.Policy{Tree: tree}
		for i := range c.policy.Thresholds {
			c.policy.Thresholds[i] = r.F64()
		}
	}
	for i := range c.decideCount {
		c.decideCount[i] = r.I64()
	}
	return r.Err()
}

// simForScheme rebuilds the Sim skeleton a snapshot was taken from: the
// five named schemes via NewSim, the pinned-mode ablations via
// NewStaticSim.
func simForScheme(cfg config.Config, schemeStr string) (*Sim, error) {
	if scheme, err := ParseScheme(schemeStr); err == nil {
		return NewSim(cfg, scheme)
	}
	for m := network.Mode0; m < network.NumModes; m++ {
		if schemeStr == "static-"+m.String() {
			return NewStaticSim(cfg, m)
		}
	}
	return nil, fmt.Errorf("core: snapshot has unknown scheme %q", schemeStr)
}

// RestoreSim reads a snapshot written by SnapState and reconstructs the
// simulation mid-run. The config and scheme come from the stream, so the
// caller needs nothing but the snapshot itself; ResumeMeasure then
// continues the interrupted measurement phase.
func RestoreSim(rd io.Reader) (*Sim, error) {
	return RestoreSimTuned(rd, nil)
}

// RestoreSimTuned is RestoreSim with a host-local config override,
// applied before the Sim skeleton is rebuilt. Only knobs that cannot
// change results may be touched — StepWorkers, SuiteWorkers, Checks —
// so a snapshot written on one machine resumes bit-identically on
// another with a different core count.
func RestoreSimTuned(rd io.Reader, tune func(*config.Config)) (*Sim, error) {
	r := snap.NewReader(rd)
	if err := r.Header(); err != nil {
		return nil, err
	}
	r.Section("CORE")
	cfgJSON := r.Bytes()
	schemeStr := r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	var cfg config.Config
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		// A bit flip inside the embedded JSON is invisible to the stream
		// framing; type it corrupt here so recovery falls back to the
		// previous checkpoint.
		return nil, snap.Corrupt(fmt.Errorf("core: snapshot config: %w", err))
	}
	if tune != nil {
		tune(&cfg)
	}
	sim, err := simForScheme(cfg, schemeStr)
	if err != nil {
		return nil, snap.Corrupt(err)
	}
	r.Section("MEAS")
	if r.Bool() {
		sim.restoreMeasure(r)
	}
	if err := r.Err(); err != nil {
		sim.Close()
		return nil, err
	}
	if err := sim.restoreController(r); err != nil {
		sim.Close()
		return nil, err
	}
	if err := sim.net.SnapRestore(r); err != nil {
		sim.Close()
		return nil, err
	}
	return sim, nil
}

// RestoreSimFile restores a simulation from a snapshot file.
func RestoreSimFile(path string) (*Sim, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	defer f.Close()
	sim, err := RestoreSim(f)
	if err != nil {
		return nil, fmt.Errorf("core: restore %s: %w", path, err)
	}
	return sim, nil
}

// LatestSnapshot returns the newest snapshot file in dir (by name; the
// zero-padded cycle number makes lexicographic order chronological).
func LatestSnapshot(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "snapshot-*.rlns"))
	if err != nil || len(matches) == 0 {
		return "", fmt.Errorf("core: no snapshots in %s", dir)
	}
	sort.Strings(matches)
	return matches[len(matches)-1], nil
}

// ListSnapshots returns every snapshot file in dir, newest first — the
// fallback chain recovery walks when the latest checkpoint turns out to
// be corrupt. An empty slice (no error) means no checkpoints exist.
func ListSnapshots(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "snapshot-*.rlns"))
	if err != nil {
		return nil, fmt.Errorf("core: list snapshots: %w", err)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(matches)))
	return matches, nil
}

// ReplayFromSnapshot is the invariant-bisection flow: when a -checks
// watchdog fires deep into a long run, restore the latest checkpoint,
// attach an event log, and re-run the interrupted phase. The failure
// reproduces within one checkpoint interval with full event capture
// instead of re-running the whole history blind.
func ReplayFromSnapshot(path string, elogW io.Writer) (Result, error) {
	sim, err := RestoreSimFile(path)
	if err != nil {
		return Result{}, err
	}
	defer sim.Close()
	if elogW != nil {
		l := eventlog.New(elogW)
		sim.Network().SetEventLog(l)
		defer l.Flush()
	}
	return sim.ResumeMeasure()
}
