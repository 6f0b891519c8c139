package main

import (
	"sync"
	"time"
)

// span is one call the benchmark made into a layer of the program, timed
// from the benchmark's side of the boundary.
type span struct {
	name       string // the layer entry point called
	label      string // what it was called on (machine model, trace)
	start, end time.Time
	work       int64 // units of work done (instructions, bytes)
}

// tracer keeps the spans of a traced run in memory. A nil *tracer records
// nothing, so measured code calls it unconditionally.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, label string) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, label: label, start: now})
	return len(t.spans) - 1
}

// end closes span id, crediting it with work units, and returns its
// duration.
func (t *tracer) end(id int, work int64) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end, s.work = now, work
	return s.end.Sub(s.start)
}

// total sums the duration and work of every span with the given name
// (and label, unless label is empty).
func (t *tracer) total(name, label string) (d time.Duration, work int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.name == name && (label == "" || s.label == label) {
			d += s.end.Sub(s.start)
			work += s.work
		}
	}
	return d, work
}
