package main

// Client-side tracing: a span around each public call the harness makes,
// kept in memory and written out when the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for roots
	Req    int64  `json:"req"`    // per-op request id shared by its spans
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// start opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) start(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// durations returns the durations in µs of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfTimes returns, per span name, the total self time in µs: each
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End > 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.End > 0 {
			out[s.Name] += float64(s.End-s.Start-covered[i]) / 1e3
		}
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
