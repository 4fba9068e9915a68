package sim

import (
	"testing"

	"readretry/internal/rng"
)

// TestHeapStressOrdering hammers the hand-rolled 4-ary heap with random
// schedule times, interleaved cancellations, and closure/tag events, and
// checks every fire lands in strict (at, seq) order — the total order the
// whole simulator's determinism rests on.
func TestHeapStressOrdering(t *testing.T) {
	r := rng.New(42)
	var e Engine
	var lastAt Time = -1
	var lastSeq uint64
	fired := 0
	var handles []Handle

	check := func(now Time, s stamp) {
		if s.at != now {
			t.Fatalf("fired at %v, scheduled for %v", now, s.at)
		}
		if s.at < lastAt || (s.at == lastAt && s.seq <= lastSeq) {
			t.Fatalf("ordering violated: (%v,%d) after (%v,%d)", s.at, s.seq, lastAt, lastSeq)
		}
		lastAt, lastSeq = s.at, s.seq
		fired++
	}

	const n = 5000
	for i := 0; i < n; i++ {
		at := Time(r.Intn(2000)) * Microsecond
		s := stamp{at: at, seq: e.seq}
		switch i % 3 {
		case 0:
			handles = append(handles, e.Schedule(at, func(now Time) { check(now, s) }))
		case 1:
			e.Schedule(at, func(now Time) { check(now, s) })
		default:
			e.ScheduleTag(at, stampCB{check: check, s: s}, i)
		}
	}
	// Cancel a deterministic subset of the handle-carrying events.
	canceled := 0
	for i, h := range handles {
		if i%4 == 0 && h.Cancel() {
			canceled++
		}
	}
	e.Run()
	if fired != n-canceled {
		t.Fatalf("fired %d events, want %d (%d canceled)", fired, n-canceled, canceled)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events stranded", e.Pending())
	}
}

type stamp struct {
	at  Time
	seq uint64
}

type stampCB struct {
	check func(Time, stamp)
	s     stamp
}

func (c stampCB) Fire(now Time, tag int) { c.check(now, c.s) }

// TestPooledEventsRecycle verifies the free list actually reuses records:
// a schedule/fire loop must settle to zero allocations per event.
func TestPooledEventsRecycle(t *testing.T) {
	var e Engine
	var cb counterCB
	allocs := testing.AllocsPerRun(500, func() {
		e.ScheduleTag(e.Now(), &cb, 0)
		e.Step()
	})
	if allocs > 0 {
		t.Fatalf("pooled ScheduleTag+Step allocates %.2f objects per event, want 0", allocs)
	}
}

// TestScheduleEventRecycles: a closure Event rides the same recycled record
// as a Callback, and its Handle is a value, so scheduling a preallocated
// Event and firing it allocates nothing.
func TestScheduleEventRecycles(t *testing.T) {
	var e Engine
	n := 0
	fn := Event(func(Time) { n++ })
	allocs := testing.AllocsPerRun(500, func() {
		e.Schedule(e.Now(), fn)
		e.Step()
	})
	if allocs > 0 {
		t.Fatalf("Schedule+Step of a preallocated Event allocates %.2f objects per event, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("scheduled Event never fired")
	}
}

// TestStaleHandleCancelsNothing: once an event fires its record is reused
// by the next one scheduled, and a Handle kept from the first use must not
// cancel the second.
func TestStaleHandleCancelsNothing(t *testing.T) {
	var e Engine
	var order []int
	stale := e.Schedule(1, func(Time) { order = append(order, 1) })
	e.Run()
	live := e.Schedule(2, func(Time) { order = append(order, 2) })
	if live.rec != stale.rec {
		t.Fatal("the second event did not reuse the fired event's record")
	}
	if stale.Cancel() {
		t.Fatal("a Handle to a fired event canceled its record's next event")
	}
	e.Run()
	if len(order) != 2 || order[1] != 2 {
		t.Fatalf("fired %v, want [1 2]", order)
	}
	if live.Cancel() {
		t.Fatal("Cancel after fire reported success")
	}
}

type counterCB struct{ n int }

func (c *counterCB) Fire(Time, int) { c.n++ }
