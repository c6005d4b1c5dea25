package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// Spans stay in memory until the run ends; a nil tracer records nothing,
// so the untraced run pays one nil check per call site.
type tracer struct {
	base   time.Time
	nextID atomic.Uint64

	mu     sync.Mutex
	spans  []span
	gauges []gauge
}

// span is one timed call. Parent 0 marks a root (one per operation);
// Root groups every span of one operation.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Root   uint64 `json:"root"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// gauge is one sampled reading of a layer's public state.
type gauge struct {
	At    int64   `json:"at_ns"`
	Name  string  `json:"gauge"`
	Value float64 `json:"value"`
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span; root 0 opens a new operation.
func (t *tracer) begin(layer string, parent, root uint64) span {
	if t == nil {
		return span{}
	}
	id := t.nextID.Add(1)
	if root == 0 {
		root = id
	}
	return span{ID: id, Parent: parent, Root: root, Layer: layer, Start: t.now()}
}

// end closes s and keeps it.
func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) gauge(name string, v float64) {
	if t == nil {
		return
	}
	g := gauge{At: t.now(), Name: name, Value: v}
	t.mu.Lock()
	t.gauges = append(t.gauges, g)
	t.mu.Unlock()
}

// selfTimes returns, per layer, the summed span durations minus the part
// of each span's interval covered by its direct children.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		d := s.End - s.Start
		d -= covered(s.Start, s.End, children[s.ID])
		out[s.Layer] += time.Duration(d)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to [start, end].
func covered(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}

// write dumps every span and gauge sample as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, g := range t.gauges {
		if err := enc.Encode(g); err != nil {
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
