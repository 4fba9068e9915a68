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

// final is the engine's observable state once a run has drained.
type final struct {
	Now   Time
	Fired uint64
}

// streamWorld is a random model driven by an arrival trace: each arrival
// and each internal event schedules further internal events, often at the
// same instant, through Schedule and ScheduleTag, and sometimes retires an
// earlier one, whose firing then does nothing — the way a suspension
// supersedes a pending completion. Its randomness is consumed in firing
// order, so any change in that order changes the whole log.
type streamWorld struct {
	e       *Engine
	r       *rng.Source
	log     []firing
	retired []bool // by creation index
}

// Fire implements Callback for the arrivals.
func (w *streamWorld) Fire(now Time, i int) {
	w.log = append(w.log, firing{now, i})
	w.spawn(now, 2)
}

func (w *streamWorld) spawn(now Time, depth int) {
	for k := w.r.Intn(3); k > 0; k-- {
		c := len(w.retired)
		w.retired = append(w.retired, false)
		fire := func(t Time) {
			if w.retired[c] {
				return
			}
			w.log = append(w.log, firing{t, -1 - c})
			if depth > 0 {
				w.spawn(t, depth-1)
			}
		}
		at := now + Time(w.r.Intn(3))
		if w.r.Intn(2) == 0 {
			w.e.Schedule(at, fire)
		} else {
			w.e.ScheduleTag(at, Event(fire), 0)
		}
	}
	if len(w.retired) > 0 && w.r.Intn(4) == 0 {
		w.retired[w.r.Intn(len(w.retired))] = true
	}
}

// runWorld replays the arrival times through a fresh engine, either as a
// Feed stream or scheduled up front, and drains it. It returns the firing
// log and the final clock and fired count.
func runWorld(seed uint64, at []Time, stream bool) ([]firing, final) {
	w := &streamWorld{e: &Engine{}, r: rng.New(seed)}
	if stream {
		feed(w.e, at, w)
	} else {
		for i, t := range at {
			w.e.ScheduleTag(t, w, i)
		}
	}
	w.e.Run()
	return w.log, final{w.e.Now(), w.e.Fired()}
}

// TestArrivalStreamMatchesUpFrontScheduling is the arrival stream's
// differential property: a Feed stream must fire exactly as scheduling
// every arrival up front did, with many arrivals tied at each instant and
// internal events scheduled at those same instants, retired, and chained.
// The full (time, identity) firing logs, and the final Now and Fired, must
// be identical.
func TestArrivalStreamMatchesUpFrontScheduling(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		at := make([]Time, 50+r.Intn(400))
		for i := range at {
			at[i] = Time(r.Intn(60))
		}
		slices.Sort(at)
		streamLog, streamEnd := runWorld(seed, at, true)
		upLog, upEnd := runWorld(seed, at, false)
		if !reflect.DeepEqual(streamLog, upLog) {
			for i := range streamLog {
				if i >= len(upLog) || streamLog[i] != upLog[i] {
					t.Logf("firing %d: stream %v, up front %v", i, streamLog[i], upLog[min(i, len(upLog)-1)])
					break
				}
			}
			return false
		}
		if streamEnd != upEnd {
			t.Logf("final state: stream %+v, up front %+v", streamEnd, upEnd)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// feed installs the arrival stream whose times are at.
func feed(e *Engine, at []Time, cb Callback) {
	e.Feed(len(at), func(i int) Time { return at[i] }, cb)
}

func TestFeedRejectsBadStreams(t *testing.T) {
	var cb counterCB
	cases := map[string]func(e *Engine){
		"unsorted": func(e *Engine) { feed(e, []Time{1, 3, 2}, &cb) },
		"in the past": func(e *Engine) {
			e.Schedule(10, func(Time) {})
			e.Run()
			feed(e, []Time{5, 20}, &cb)
		},
		"replacing a pending stream": func(e *Engine) {
			feed(e, []Time{1, 2}, &cb)
			e.Step()
			feed(e, []Time{3}, &cb)
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
	feed(&e, []Time{1, 1, 4}, &cb)
	if e.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", e.Pending())
	}
	e.Run()
	feed(&e, []Time{4, 9}, &cb)
	e.Run()
	if cb.n != 5 || e.Fired() != 5 || e.Now() != 9 || e.Pending() != 0 {
		t.Fatalf("fired %d (engine %d) ending at %v with %d pending; want 5, 5, 9, 0",
			cb.n, e.Fired(), e.Now(), e.Pending())
	}
}
