package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Cell is the canonical index of the sweep cell the call
// served, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Cell   int    `json:"cell"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. The traced run is
// serial: a span's children run inside it one at a time, even when a
// child runs on another goroutine the caller is blocked on (a sweep
// worker, an HTTP handler), so the innermost open span is every new
// span's parent.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, cell int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Cell: cell})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one, and returns
// its duration.
func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic("bench: span " + t.spans[id].Name + " closed out of order")
	}
	t.open = t.open[:n-1]
	t.spans[id].End = int64(time.Since(t.t0))
	return t.spans[id].dur()
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, cell int, fn func()) time.Duration {
	id := t.begin(name, cell)
	fn()
	return t.end(id)
}

// durations returns the duration of every span with the given name, in
// the order they were opened.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each layer's self time: every span's duration minus
// the part its direct children cover, summed over the layer its name
// starts with ("ssd.run" belongs to layer "ssd"). Root spans belong to
// layer "bench", the benchmark's own time between calls, so the layers
// add up to the traced wall time the roots cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.dur()
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += s.dur() - covered[i]
	}
	return out
}

// write stores every span plus the per-layer self times as JSON.
func (t *tracer) write(path string, wall time.Duration) error {
	self := t.selfTimes()
	selfMS := make(map[string]float64, len(self))
	for layer, d := range self {
		selfMS[layer] = ms(d)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		WallMS float64            `json:"wall_ms"`
		SelfMS map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}{ms(wall), selfMS, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
