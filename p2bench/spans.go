package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval. Spans of one operation share Trace; a
// child names the span that caused it in Parent. Clock says which time
// base Start and End are in: "wall" seconds since the run began, or
// "virtual" seconds of deployment time.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Trace  int64   `json:"trace"`
	Name   string  `json:"name"`
	Clock  string  `json:"clock"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// spanLog holds the spans of a traced run in memory until the run
// ends. A nil *spanLog records nothing, so untraced runs pay one nil
// check per call site.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) id() int64 {
	l.next++
	return l.next
}

// add records a finished span and returns its id (0 when l is nil).
// trace 0 starts a new trace rooted at this span.
func (l *spanLog) add(name, clock string, parent, trace int64, start, end float64) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.id()
	if trace == 0 {
		trace = id
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Clock: clock, Start: start, End: end})
	return id
}

// wall times fn as a wall-clock span and returns its duration in
// seconds; it times fn even when l is nil.
func (l *spanLog) wall(name string, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	if l != nil {
		l.add(name, "wall", 0, 0, start.Sub(l.t0).Seconds(), end.Sub(l.t0).Seconds())
	}
	return end.Sub(start).Seconds()
}

// durations returns the wall durations, in seconds, of every span
// with the given name.
func (l *spanLog) durations(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
