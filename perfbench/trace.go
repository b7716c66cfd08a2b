package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer's origin; Parent indexes the enclosing
// span in the same slice (-1 for a root); ID is shared by every span of
// one request or one machine run.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     uint64 `json:"id"`
}

// Tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

// now returns nanoseconds since the tracer's origin.
func (t *Tracer) now() int64 { return int64(time.Since(t.origin)) }

// add records a finished span and returns its index.
func (t *Tracer) add(s Span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// begin records an open span (End set by finish) and returns its index,
// so children started later can name it as their parent.
func (t *Tracer) begin(name string, parent int, id uint64) int {
	return t.add(Span{Name: name, Start: t.now(), Parent: parent, ID: id})
}

// finish closes a span opened by begin.
func (t *Tracer) finish(i int) {
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *Tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns, per span name, the summed self time of the spans
// in ss: each span's duration minus the part of it that its direct
// children cover. Overlapping children (parallel work under one parent)
// are merged first, so covered time is never counted twice.
func selfTimes(ss []Span) map[string]int64 {
	children := make(map[int][]int, len(ss))
	for i, s := range ss {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]int64{}
	var iv [][2]int64
	for i, s := range ss {
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := ss[c].Start, ss[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out[s.Name] += (s.End - s.Start) - covered(iv)
	}
	return out
}

// covered returns the length of the union of intervals iv (reordered in
// place).
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total := int64(0)
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}
