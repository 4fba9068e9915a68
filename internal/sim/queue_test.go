package sim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"readretry/internal/rng"
)

// TestHeapStressOrdering hammers the sorted event queue with random
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
		s, id := stamp{at: at, seq: uint64(i)}, i // i is the scheduling order
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

// orderWorld schedules events by a pattern and logs their firings: every
// event it schedules, Feed entries first (ID ≥ 0) and then the rest in
// scheduling order (ID < 0), goes in sched, and each firing may schedule
// more events from inside its callback while budget lasts.
type orderWorld struct {
	e      *Engine
	r      *rng.Source
	budget int
	sched  []firing
	log    []firing
}

func (w *orderWorld) schedule(at Time) {
	id := -1 - len(w.sched)
	w.sched = append(w.sched, firing{at, id})
	if w.r.Intn(2) == 0 {
		w.e.Schedule(at, func(now Time) { w.Fire(now, id) })
	} else {
		w.e.ScheduleTag(at, w, id)
	}
}

// Fire implements Callback for the Feed stream and the scheduled events.
func (w *orderWorld) Fire(now Time, id int) {
	w.log = append(w.log, firing{now, id})
	for k := w.r.Intn(3); k > 0 && w.budget > 0; k-- {
		w.budget--
		w.schedule(now + Time(w.r.Intn(3)))
	}
}

// TestQueueMatchesStableSort is the event queue's differential test: the
// engine must fire exactly the order that a stable sort by time gives the
// events in scheduling order, which is the strict (at, seq) order, with a
// Feed stream's entries ahead of every scheduled event at the same instant.
// Events scheduled from callbacks join the same sort: each lands no earlier
// than now and after every event already scheduled, so the whole firing
// sequence is one sorted order. Ties must count the consecutive
// same-instant pairs of that order.
func TestQueueMatchesStableSort(t *testing.T) {
	const n = 400
	cases := []struct {
		name      string
		at        func(r *rng.Source, i int) Time
		stream    bool
		callbacks int
	}{
		{name: "random", at: func(r *rng.Source, _ int) Time { return Time(r.Intn(50)) }},
		{name: "increasing", at: func(_ *rng.Source, i int) Time { return Time(i) }},
		{name: "decreasing", at: func(_ *rng.Source, i int) Time { return Time(n - i) }},
		{name: "one instant", at: func(*rng.Source, int) Time { return 7 }},
		{name: "from callbacks", at: func(r *rng.Source, _ int) Time { return Time(r.Intn(50)) }, callbacks: 2000},
		{name: "with stream", at: func(r *rng.Source, _ int) Time { return Time(r.Intn(50)) }, stream: true, callbacks: 2000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 20; seed++ {
				w := &orderWorld{e: &Engine{}, r: rng.New(seed), budget: c.callbacks}
				if c.stream {
					arrivals := make([]Time, n)
					for i := range arrivals {
						arrivals[i] = Time(w.r.Intn(60))
					}
					slices.Sort(arrivals)
					for i, at := range arrivals {
						w.sched = append(w.sched, firing{at, i})
					}
					feed(w.e, arrivals, w)
				}
				for i := 0; i < n; i++ {
					w.schedule(c.at(w.r, i))
				}
				w.e.Run()

				want := slices.Clone(w.sched)
				slices.SortStableFunc(want, func(a, b firing) int { return cmp.Compare(a.At, b.At) })
				if !slices.Equal(w.log, want) {
					for i := range want {
						if i >= len(w.log) || w.log[i] != want[i] {
							t.Fatalf("seed %d: firing %d is %v, want %v", seed, i, w.log[min(i, len(w.log)-1)], want[i])
						}
					}
					t.Fatalf("seed %d: %d firings, want %d", seed, len(w.log), len(want))
				}
				var ties uint64
				for i := 1; i < len(want); i++ {
					if want[i].At == want[i-1].At {
						ties++
					}
				}
				if e := w.e; e.Fired() != uint64(len(want)) || e.Ties() != ties || e.Pending() != 0 {
					t.Fatalf("seed %d: Fired %d, Ties %d, Pending %d; want %d, %d, 0",
						seed, e.Fired(), e.Ties(), e.Pending(), len(want), ties)
				}
			}
		})
	}
}

// chain keeps a fixed number of events in flight: each firing schedules
// its successor a pseudo-random delay ahead, the way a device's resources
// each keep one completion pending.
type chain struct {
	e *Engine
	r *rng.Source
}

func (c *chain) Fire(now Time, _ int) {
	c.e.ScheduleTag(now+Time(1+c.r.Intn(100))*Microsecond, c, 0)
}

// BenchmarkEngine times one event, scheduled and fired, at the pending-set
// sizes a device reaches (8 and 24 in flight) and for a monotone schedule
// of 40k arrivals made up front.
func BenchmarkEngine(b *testing.B) {
	for _, inFlight := range []int{8, 24} {
		b.Run(fmt.Sprintf("steady-%d", inFlight), func(b *testing.B) {
			var e Engine
			c := &chain{e: &e, r: rng.New(1)}
			for i := 0; i < inFlight; i++ {
				c.Fire(0, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
	b.Run("arrivals-40k", func(b *testing.B) {
		const arrivals = 40000
		var e Engine
		var cb counterCB
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			start := e.Now()
			for k := 0; k < arrivals; k++ {
				e.ScheduleTag(start+Time(k/2)*Microsecond, &cb, k)
			}
			e.Run()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*arrivals), "ns/event")
	})
}
