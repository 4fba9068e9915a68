package sim

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"readretry/internal/rng"
)

// firing is one fired event: arrivals have ids ≥ 0 (their stream index),
// internal events ids < 0 (creation order).
type firing struct {
	At Time
	ID int
}

// probe is the engine's observable state after a RunUntil.
type probe struct {
	Now     Time
	Pending int
	Fired   uint64
}

// streamWorld is a random model driven by an arrival trace: each arrival
// and each internal event schedules further internal events, often at the
// same instant, through Schedule (its Handle kept or dropped) and
// ScheduleTag, and sometimes cancels an earlier one. Its randomness is
// consumed in firing order, so any change in that order changes the whole
// log.
type streamWorld struct {
	e       *Engine
	r       *rng.Source
	log     []firing
	handles []Handle
	created int
}

// Fire implements Callback for the arrivals.
func (w *streamWorld) Fire(now Time, i int) {
	w.log = append(w.log, firing{now, i})
	w.spawn(now, 2)
}

func (w *streamWorld) spawn(now Time, depth int) {
	for k := w.r.Intn(3); k > 0; k-- {
		id := -1 - w.created
		w.created++
		fire := func(t Time) {
			w.log = append(w.log, firing{t, id})
			if depth > 0 {
				w.spawn(t, depth-1)
			}
		}
		at := now + Time(w.r.Intn(3))
		switch w.r.Intn(3) {
		case 0:
			w.handles = append(w.handles, w.e.Schedule(at, fire))
		case 1:
			w.e.Schedule(at, fire)
		default:
			w.e.ScheduleTag(at, Event(fire), 0)
		}
	}
	if len(w.handles) > 0 && w.r.Intn(4) == 0 {
		w.handles[w.r.Intn(len(w.handles))].Cancel()
	}
}

// runWorld replays the arrival times through a fresh engine, either as a
// Feed stream or scheduled up front, stepping with RunUntil through every
// deadline before draining. It returns the firing log and the probes.
func runWorld(seed uint64, at []Time, deadlines []Time, stream bool) ([]firing, []probe) {
	w := &streamWorld{e: &Engine{}, r: rng.New(seed)}
	if stream {
		w.e.Feed(at, w)
	} else {
		for i, t := range at {
			w.e.ScheduleTag(t, w, i)
		}
	}
	var probes []probe
	for _, d := range deadlines {
		w.e.RunUntil(d)
		probes = append(probes, probe{w.e.Now(), w.e.Pending(), w.e.Fired()})
	}
	w.e.Run()
	probes = append(probes, probe{w.e.Now(), w.e.Pending(), w.e.Fired()})
	return w.log, probes
}

// TestArrivalStreamMatchesUpFrontScheduling is the arrival stream's
// differential property: a Feed stream must fire exactly as scheduling
// every arrival up front did, with many arrivals tied at each instant and
// internal events scheduled at those same instants, canceled, and chained.
// The (time, identity) firing sequences, and Now/Pending/Fired after every
// RunUntil, must be identical.
func TestArrivalStreamMatchesUpFrontScheduling(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		at := make([]Time, 50+r.Intn(400))
		for i := range at {
			at[i] = Time(r.Intn(60))
		}
		slices.Sort(at)
		var deadlines []Time
		for d := Time(-1); d < 70; d += Time(1 + r.Intn(8)) {
			deadlines = append(deadlines, d)
		}
		streamLog, streamProbes := runWorld(seed, at, deadlines, true)
		upLog, upProbes := runWorld(seed, at, deadlines, false)
		if !reflect.DeepEqual(streamLog, upLog) {
			for i := range streamLog {
				if i >= len(upLog) || streamLog[i] != upLog[i] {
					t.Logf("firing %d: stream %v, up front %v", i, streamLog[i], upLog[min(i, len(upLog)-1)])
					break
				}
			}
			return false
		}
		if !reflect.DeepEqual(streamProbes, upProbes) {
			t.Logf("probes: stream %v\nup front %v", streamProbes, upProbes)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFeedRejectsBadStreams(t *testing.T) {
	var cb counterCB
	cases := map[string]func(e *Engine){
		"unsorted": func(e *Engine) { e.Feed([]Time{1, 3, 2}, &cb) },
		"in the past": func(e *Engine) {
			e.RunUntil(10)
			e.Feed([]Time{5, 20}, &cb)
		},
		"replacing a pending stream": func(e *Engine) {
			e.Feed([]Time{1, 2}, &cb)
			e.Step()
			e.Feed([]Time{3}, &cb)
		},
	}
	for name, feed := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("Feed did not panic")
				}
			}()
			feed(&Engine{})
		})
	}
}

// TestFeedAfterDrain checks that a drained stream may be followed by a
// new one, and that arrivals count in Pending and Fired.
func TestFeedAfterDrain(t *testing.T) {
	var e Engine
	var cb counterCB
	e.Feed([]Time{1, 1, 4}, &cb)
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	e.Run()
	e.Feed([]Time{4, 9}, &cb)
	e.Run()
	if cb.n != 5 || e.Fired() != 5 || e.Now() != 9 || e.Pending() != 0 {
		t.Fatalf("fired %d (engine %d) ending at %v with %d pending; want 5, 5, 9, 0",
			cb.n, e.Fired(), e.Now(), e.Pending())
	}
}
