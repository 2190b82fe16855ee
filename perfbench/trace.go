package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one batch,
// request or replication share ID; Parent indexes the enclosing span in
// the tracer's list (-1 for a root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Times are nanoseconds
// since the tracer was created.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// ns converts a wall time to tracer time.
func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// add records a finished span and returns its index for children.
func (t *tracer) add(name string, id uint64, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: t.ns(start), End: t.ns(end)})
	return len(t.spans) - 1
}

// addAll appends a group of spans whose Parent fields are relative to the
// group (index into ss, -1 for a root) and rebases them.
func (t *tracer) addAll(ss []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range ss {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// byName returns the durations, in seconds, of every span called name.
func (t *tracer) byName(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// write dumps the spans as JSON lines, one span per line, after a header
// line carrying the run's host facts.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
