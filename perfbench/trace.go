package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. The layer is
// the name's prefix up to the first dot ("core.Pretrain" -> core).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

const noParent int32 = -1

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced batches pay one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (noParent on a nil tracer).
func (t *tracer) begin(name, job string, parent int32) int32 {
	if t == nil {
		return noParent
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose ends were observed elsewhere (job spans
// timestamped from the campaign journal).
func (t *tracer) add(name, job string, parent int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Name: name, Job: job,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	t.mu.Unlock()
}

// seconds returns the duration of every span named name, in seconds.
func (t *tracer) seconds(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfSeconds sums each layer's self time: a span's duration minus the
// part of its interval that its child spans cover.
func (t *tracer) selfSeconds() map[string]float64 {
	children := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		out[layerOf(s.Name)] += float64(self) / 1e9
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's. Children of a pool span run in parallel and
// overlap, so they are merged rather than summed.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// write stores the spans as JSON lines, one span per line, after a
// header line carrying the run's environment record.
func (t *tracer) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
