// Package sim provides the discrete-event simulation engine that drives the
// SSD model: a simulated clock, a sorted event queue with deterministic
// ordering, and helpers for time arithmetic.
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
	cb  Callback
	tag int
}

// Engine is a single-threaded discrete-event simulator. Events scheduled for
// the same instant fire in scheduling order, making runs fully deterministic.
// The zero value is ready to use.
type Engine struct {
	now Time
	// queue[head:] holds the pending events in firing order: by time, then
	// by scheduling order. The next to fire is queue[head]. Popped slots
	// keep their stale pointers: the records live on in free.
	queue []*scheduled
	head  int
	fired uint64
	ties  uint64
	// free recycles event records: an SSD run schedules one event per plan
	// operation across millions of reads, and the free list keeps that from
	// being one heap allocation each.
	free []*scheduled

	// arrivals is the length of the time-sorted stream installed by Feed,
	// arriveAt its entries' times, arrive its callback, and next the index
	// of its first unfired entry, which fires at nextAt. Step merges the
	// stream with the queue, so the queue holds only in-flight events.
	arrivals int
	arriveAt func(int) Time
	arrive   Callback
	next     int
	nextAt   Time
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events fired so far, arrivals included, for
// diagnostics. It counts firings, not work: a firing its callback ignores
// as retired counts too.
func (e *Engine) Fired() uint64 { return e.fired }

// Ties returns how many of the fired events fired at the same instant as
// the event fired just before them: each pair of consecutive same-instant
// firings counts once.
func (e *Engine) Ties() uint64 { return e.ties }

// Pending returns the number of events waiting to fire, counting the
// arrival stream's unfired entries.
func (e *Engine) Pending() int { return len(e.queue) - e.head + e.arrivals - e.next }

// Feed installs a time-sorted arrival stream of n entries, entry i due at
// at(i): cb.Fire(at(i), i) runs at at(i) for every i, in index order. The
// times stay the caller's; the engine reads each through at when it is
// next to fire. At equal times the stream fires before any scheduled
// event, which is the order the stream would have had if each entry had
// been scheduled, in index order, before every other event. Feed panics if
// the times are unsorted, start before the current clock, or an earlier
// stream has not drained.
func (e *Engine) Feed(n int, at func(int) Time, cb Callback) {
	if e.next < e.arrivals {
		panic(fmt.Sprintf("sim: Feed with %d arrivals of an earlier stream pending", e.arrivals-e.next))
	}
	prev := e.now
	for i := 0; i < n; i++ {
		t := at(i)
		if t < prev {
			panic(fmt.Sprintf("sim: arrival %d at %v is out of order", i, t))
		}
		prev = t
	}
	e.arrivals, e.arriveAt, e.arrive, e.next = n, at, cb, 0
	if n > 0 {
		e.nextAt = at(0)
	}
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
	s.at, s.cb, s.tag = at, cb, tag
	e.insert(s)
}

// insert adds s to the queue, scanning from the latest end past the events
// that fire later. s is the latest event scheduled, so it fires after every
// pending event at its own time, and comparing times alone keeps the queue
// in firing order. The scan is short because a device keeps few events in
// flight (ssd's TestPendingEventsStayBounded), and a monotone schedule
// appends.
func (e *Engine) insert(s *scheduled) {
	q := e.queue
	if len(q) == cap(q) && e.head >= len(q)/2 {
		// At least half the array is popped slots: move the pending
		// records to the front rather than grow it. Each move frees as
		// many slots as it copies records, so it costs O(1) per insert.
		q = q[:copy(q, q[e.head:])]
		e.head = 0
	}
	q = append(q, s)
	i := len(q) - 1
	for ; i > e.head && s.at < q[i-1].at; i-- {
		q[i] = q[i-1]
	}
	q[i] = s
	e.queue = q
}

// Step fires the next event, advancing the clock to its timestamp. It
// reports false when no events remain.
func (e *Engine) Step() bool {
	var (
		at  Time
		cb  Callback
		tag int
	)
	switch {
	case e.streamFirst():
		at, cb, tag = e.nextAt, e.arrive, e.next
		e.next++
		if e.next < e.arrivals {
			e.nextAt = e.arriveAt(e.next)
		}
	case e.head < len(e.queue):
		s := e.queue[e.head]
		e.head++
		at, cb, tag = s.at, s.cb, s.tag
		s.cb = nil
		e.free = append(e.free, s)
	default:
		return false
	}
	if at == e.now && e.fired > 0 {
		e.ties++
	}
	e.now = at
	e.fired++
	cb.Fire(at, tag)
	return true
}

// streamFirst reports whether the next event to fire is the arrival
// stream's: ties go to the stream.
func (e *Engine) streamFirst() bool {
	return e.next < e.arrivals && (e.head == len(e.queue) || e.nextAt <= e.queue[e.head].at)
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}
