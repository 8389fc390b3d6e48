package main

// Spans for the traced pass. The benchmark records them itself, around its
// calls into each layer's public functions; the program carries no spans.
// A span has a name, a start, an end and a parent; spans of one op share
// the op's root. Spans stay in memory and are written out when the run ends.

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for an op's root
	Op     int64  `json:"op"`     // the op this span belongs to
	Worker int    `json:"worker"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
}

// layerStats aggregates one span name over a pass.
type layerStats struct {
	self  int64   // summed self time, ns
	count int64   // spans
	durs  []int64 // each span's full duration, ns, for medians
}

// maxKeptSpans bounds the spans retained for the spans file; aggregates
// cover every span regardless.
const maxKeptSpans = 50_000

// tracer records one worker's spans. Not safe for concurrent use: each
// worker goroutine owns one.
type tracer struct {
	epoch  time.Time
	worker int
	ops    int64
	cur    []span // the open op's spans
	kept   []span
	layers map[string]*layerStats
}

func newTracer(epoch time.Time, worker int) *tracer {
	return &tracer{epoch: epoch, worker: worker, layers: map[string]*layerStats{}}
}

// begin opens a span under parent (-1 for the op root) and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	id := int32(len(t.cur))
	t.cur = append(t.cur, span{ID: id, Parent: parent, Op: t.ops, Worker: t.worker,
		Name: name, Start: int64(time.Since(t.epoch))})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) { t.cur[id].End = int64(time.Since(t.epoch)) }

// wrap runs fn inside a span.
func (t *tracer) wrap(name string, parent int32, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// endOp closes the op: it computes every span's self time (its duration
// minus the part its children cover; children of one span never overlap,
// since one goroutine records them), folds the op into the aggregates and
// retains its spans while there is room.
func (t *tracer) endOp() {
	child := make([]int64, len(t.cur))
	for _, s := range t.cur {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.cur {
		d := s.End - s.Start
		ls := t.layers[s.Name]
		if ls == nil {
			ls = &layerStats{}
			t.layers[s.Name] = ls
		}
		ls.self += max(d-child[i], 0)
		ls.count++
		ls.durs = append(ls.durs, d)
	}
	if len(t.kept)+len(t.cur) <= maxKeptSpans {
		t.kept = append(t.kept, t.cur...)
	}
	t.cur = t.cur[:0]
	t.ops++
}

// traceResult merges the workers of one traced pass.
type traceResult struct {
	ops    int64
	wall   time.Duration
	layers map[string]*layerStats
	spans  []span
}

func mergeTracers(wall time.Duration, ts ...*tracer) traceResult {
	r := traceResult{wall: wall, layers: map[string]*layerStats{}}
	for _, t := range ts {
		r.ops += t.ops
		r.spans = append(r.spans, t.kept...)
		for name, ls := range t.layers {
			m := r.layers[name]
			if m == nil {
				m = &layerStats{}
				r.layers[name] = m
			}
			m.self += ls.self
			m.count += ls.count
			m.durs = append(m.durs, ls.durs...)
		}
	}
	return r
}

// selfPerOp is a layer's self time per op, in ms.
func (r traceResult) selfPerOp(name string) float64 {
	ls := r.layers[name]
	if ls == nil || r.ops == 0 {
		return 0
	}
	return float64(ls.self) / float64(r.ops) / 1e6
}

// medianDur is the median full duration of a layer's spans, in ns.
func (r traceResult) medianDur(name string) float64 {
	ls := r.layers[name]
	if ls == nil || len(ls.durs) == 0 {
		return 0
	}
	return latencies(append([]int64(nil), ls.durs...)).summarize().p50
}

// names lists the recorded span names, sorted.
func (r traceResult) names() []string {
	var ns []string
	for n := range r.layers {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// writeSpans writes the retained spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
