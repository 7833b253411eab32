package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the ID of the span whose call caused this one (0 for a
// root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory; Write dumps them when the run ends. A nil
// *Tracer records nothing, so untraced code paths pay one nil check.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a trace clock.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Record stores a finished span measured by the caller and returns its
// ID.
func (t *Tracer) Record(name, req string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Write dumps every span as one JSON document.
func (t *Tracer) Write(path string) error {
	data, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTime is a span's duration minus the durations of its direct
// children. A child span is the same input replayed one layer further
// down, so what remains is the time this layer adds on top of it.
func selfTime(parent Span, spans []Span) time.Duration {
	self := parent.Dur()
	for _, s := range spans {
		if s.Parent == parent.ID && s.ID != parent.ID {
			self -= s.Dur()
		}
	}
	return self
}
