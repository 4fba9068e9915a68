package sim

import (
	"testing"

	"readretry/internal/rng"
)

// TestHeapStressOrdering hammers the hand-rolled 4-ary heap with random
// schedule times and closure/tag events, a subset of them retired after
// scheduling the way a suspension supersedes a pending completion, and
// checks every fire lands in strict (at, seq) order — the total order the
// whole simulator's determinism rests on — with only live events acting.
func TestHeapStressOrdering(t *testing.T) {
	r := rng.New(42)
	var e Engine
	var lastAt Time = -1
	var lastSeq uint64
	const n = 5000
	retired := make([]bool, n)
	fired, acted := 0, 0

	check := func(now Time, s stamp, id int) {
		if s.at != now {
			t.Fatalf("fired at %v, scheduled for %v", now, s.at)
		}
		if s.at < lastAt || (s.at == lastAt && s.seq <= lastSeq) {
			t.Fatalf("ordering violated: (%v,%d) after (%v,%d)", s.at, s.seq, lastAt, lastSeq)
		}
		lastAt, lastSeq = s.at, s.seq
		fired++
		if !retired[id] {
			acted++
		}
	}

	for i := 0; i < n; i++ {
		at := Time(r.Intn(2000)) * Microsecond
		s, id := stamp{at: at, seq: e.seq}, i
		if i%2 == 0 {
			e.Schedule(at, func(now Time) { check(now, s, id) })
		} else {
			e.ScheduleTag(at, stampCB{check: check, s: s}, id)
		}
	}
	// Retire a deterministic subset: they still fire, as no-ops.
	nRetired := 0
	for i := 0; i < n; i += 3 {
		retired[i] = true
		nRetired++
	}
	e.Run()
	if fired != n || acted != n-nRetired {
		t.Fatalf("fired %d events (%d acted), want %d (%d acted)", fired, acted, n, n-nRetired)
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
	check func(Time, stamp, int)
	s     stamp
}

func (c stampCB) Fire(now Time, tag int) { c.check(now, c.s, tag) }

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
	if cb.n == 0 {
		t.Fatal("scheduled Callback never fired")
	}
}

// TestScheduleEventRecycles: a closure Event rides the same recycled record
// as a Callback, so scheduling a preallocated Event and firing it allocates
// nothing.
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

type counterCB struct{ n int }

func (c *counterCB) Fire(Time, int) { c.n++ }
