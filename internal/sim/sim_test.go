package sim

import (
	"testing"
	"testing/quick"
)

func TestClockAdvances(t *testing.T) {
	var e Engine
	var times []Time
	e.Schedule(10*Microsecond, func(now Time) { times = append(times, now) })
	e.Schedule(5*Microsecond, func(now Time) { times = append(times, now) })
	e.Schedule(20*Microsecond, func(now Time) { times = append(times, now) })
	e.Run()
	want := []Time{5 * Microsecond, 10 * Microsecond, 20 * Microsecond}
	if len(times) != len(want) {
		t.Fatalf("fired %d events, want %d", len(times), len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, times[i], want[i])
		}
	}
	if e.Now() != 20*Microsecond {
		t.Errorf("final clock %v, want 20us", e.Now())
	}
}

func TestSameInstantFIFOOrder(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(Microsecond, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("event order[%d] = %d; same-instant events must fire FIFO", i, v)
		}
	}
}

func TestScheduleFromCallback(t *testing.T) {
	var e Engine
	fired := 0
	e.Schedule(1*Microsecond, func(now Time) {
		fired++
		e.Schedule(now+2*Microsecond, func(Time) { fired++ })
	})
	e.Run()
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	if e.Now() != 3*Microsecond {
		t.Errorf("clock = %v, want 3us", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var e Engine
	e.Schedule(10, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("expected panic scheduling before now")
		}
	}()
	e.Schedule(5, func(Time) {})
}

func TestFiredCounter(t *testing.T) {
	var e Engine
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func(Time) {})
	}
	e.Run()
	if e.Fired() != 5 {
		t.Errorf("Fired = %d, want 5", e.Fired())
	}
}

func TestMonotonicClockProperty(t *testing.T) {
	// Whatever order events are scheduled in, the clock observed by
	// callbacks must be non-decreasing.
	f := func(offsets []uint32) bool {
		var e Engine
		last := Time(-1)
		ok := true
		for _, off := range offsets {
			e.Schedule(Time(off%1000), func(now Time) {
				if now < last {
					ok = false
				}
				last = now
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{90 * Microsecond, "90.00us"},
		{5 * Millisecond, "5.00ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestUnitConversions(t *testing.T) {
	if (90 * Microsecond).Microseconds() != 90 {
		t.Error("Microseconds conversion wrong")
	}
	if (5 * Millisecond).Milliseconds() != 5 {
		t.Error("Milliseconds conversion wrong")
	}
	if (3 * Second).Seconds() != 3 {
		t.Error("Seconds conversion wrong")
	}
}
