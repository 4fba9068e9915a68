// Package sim provides the discrete-event simulation engine that drives the
// SSD model: a simulated clock, an event heap with deterministic ordering,
// and helpers for time arithmetic.
//
// All simulated time is kept as integer nanoseconds (Time). The paper's
// timing parameters are microseconds-scale, so nanosecond resolution leaves
// ample headroom while keeping arithmetic exact — no floating-point clock
// drift across millions of events.
package sim

import (
	"fmt"
)

// Time is a point in simulated time, in nanoseconds since simulation start.
type Time int64

// Duration units for constructing Time spans.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Microseconds converts t to a float64 microsecond count, for reporting.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds converts t to a float64 millisecond count, for reporting.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds converts t to a float64 second count, for reporting.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.2fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// Callback is what the engine schedules: a long-lived object (a plan
// executor, a resource queue) implements Fire once and is scheduled with an
// integer tag identifying which of its pending completions fired, so
// scheduling it allocates nothing.
type Callback interface {
	Fire(now Time, tag int)
}

// Event is a closure Callback. Fire runs at the scheduled time with the
// engine clock already advanced.
type Event func(now Time)

// Fire implements Callback.
func (f Event) Fire(now Time, _ int) { f(now) }

// scheduled is the engine's one event record. A scheduled event cannot be
// withdrawn: it fires, and its record returns to the engine's free list. A
// caller that supersedes a pending event retires it by tag instead, so the
// stale firing is a no-op.
type scheduled struct {
	at  Time
	seq uint64 // insertion order breaks ties deterministically
	cb  Callback
	tag int
}

// eventHeap is a hand-rolled 4-ary min-heap ordered by (at, seq). The
// comparator is a strict total order (seq is unique), so events pop in
// exactly (at, seq) order no matter how the heap arranges itself internally
// — determinism does not depend on the arity or sift details. Hand-rolling
// (instead of container/heap) removes the per-comparison interface calls,
// and the wider fan-out roughly halves the sift depth; together the heap
// was the single hottest component of a simulation run.
type eventHeap []*scheduled

const heapArity = 4

func eventLess(a, b *scheduled) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(s *scheduled) {
	*h = append(*h, s)
	h.siftUp(len(*h) - 1)
}

func (h *eventHeap) pop() *scheduled {
	old := *h
	s := old[0]
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		old[0] = last
		h.siftDown(0)
	}
	return s
}

func (h eventHeap) siftUp(i int) {
	s := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		p := h[parent]
		if !eventLess(s, p) {
			break
		}
		h[i] = p
		i = parent
	}
	h[i] = s
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	s := h[i]
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventLess(h[c], h[min]) {
				min = c
			}
		}
		if !eventLess(h[min], s) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = s
}

// Engine is a single-threaded discrete-event simulator. Events scheduled for
// the same instant fire in scheduling order, making runs fully deterministic.
// The zero value is ready to use.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	fired  uint64
	// free recycles event records: an SSD run schedules one event per plan
	// operation across millions of reads, and the free list keeps that from
	// being one heap allocation each.
	free []*scheduled

	// arrivals is the time-sorted stream installed by Feed, arrive its
	// callback, and next the index of its first unfired entry. Step merges
	// the stream with the heap, so the heap holds only in-flight events.
	arrivals []Time
	arrive   Callback
	next     int
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far, for diagnostics.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting to fire, counting the
// arrival stream's unfired entries.
func (e *Engine) Pending() int { return len(e.events) + len(e.arrivals) - e.next }

// Feed installs a time-sorted arrival stream: cb.Fire(at[i], i) runs at
// at[i] for every i, in index order. At equal times the stream fires before
// any heap event, which is the order the stream would have had if each
// entry had been scheduled, in index order, before every other event. Feed
// panics if at is unsorted, starts before the current clock, or an earlier
// stream has not drained.
func (e *Engine) Feed(at []Time, cb Callback) {
	if e.next < len(e.arrivals) {
		panic(fmt.Sprintf("sim: Feed with %d arrivals of an earlier stream pending", len(e.arrivals)-e.next))
	}
	prev := e.now
	for i, t := range at {
		if t < prev {
			panic(fmt.Sprintf("sim: arrival %d at %v is out of order", i, t))
		}
		prev = t
	}
	e.arrivals, e.arrive, e.next = at, cb, 0
}

// Schedule enqueues fn to run at time at; it is ScheduleTag(at, fn, 0).
func (e *Engine) Schedule(at Time, fn Event) { e.ScheduleTag(at, fn, 0) }

// ScheduleTag enqueues cb.Fire(at, tag). Scheduling in the past (before the
// current clock) panics: it always indicates a model bug, and silently
// reordering time would corrupt every latency statistic downstream.
// Same-instant events fire in scheduling order.
func (e *Engine) ScheduleTag(at Time, cb Callback, tag int) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	var s *scheduled
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		s = &scheduled{}
	}
	s.at, s.seq, s.cb, s.tag = at, e.seq, cb, tag
	e.seq++
	e.events.push(s)
}

// Step fires the next event, advancing the clock to its timestamp. It
// reports false when no events remain.
func (e *Engine) Step() bool {
	if e.streamFirst() {
		i := e.next
		e.next++
		e.now = e.arrivals[i]
		e.fired++
		e.arrive.Fire(e.now, i)
		return true
	}
	if len(e.events) == 0 {
		return false
	}
	s := e.events.pop()
	e.now = s.at
	e.fired++
	cb, tag := s.cb, s.tag
	s.cb = nil
	e.free = append(e.free, s)
	cb.Fire(e.now, tag)
	return true
}

// streamFirst reports whether the next event to fire is the arrival
// stream's: ties go to the stream.
func (e *Engine) streamFirst() bool {
	return e.next < len(e.arrivals) && (len(e.events) == 0 || e.arrivals[e.next] <= e.events[0].at)
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}
