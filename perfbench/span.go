package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. The layer is the name's prefix up
// to the first dot ("mc.count" belongs to mc).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory until the run ends. A nil *tracer
// records nothing, so untraced passes call the same code.
type tracer struct {
	runID string
	mu    sync.Mutex
	spans []span
}

func newTracer(runID string) *tracer { return &tracer{runID: runID} }

// start opens a span under parent (-1 for none) and returns its ID.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an interval measured elsewhere, such as a daemon's own job
// timestamps, under parent.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	if end.Before(start) {
		end = start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// total sums the durations of the spans with the given name, in seconds.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval covered by its child spans, over the spans recorded since the
// tracer held from spans.
func (t *tracer) selfTimes(from int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans[from:]
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		self := (s.End - s.Start) - covered(s, children[s.ID])
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(self) / 1e9
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
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
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// write dumps the spans as JSON once the run has ended.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		RunID string `json:"run_id"`
		Spans []span `json:"spans"`
	}{t.runID, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
