package ssd

import (
	"testing"

	"readretry/internal/core"
	"readretry/internal/sim"
)

// TestPendingEventsStayBounded guards the engine's cost model. The event
// queue inserts by scanning past the pending events that fire later, so an
// insert costs at most the in-flight count, and that count is bounded by
// the device's resources, not by the trace:
//
//   - A channel bus or ECC unit has at most one event pending, the end of
//     its current occupancy; queued acquires wait in its own ring.
//   - A die has at most one live event. Every plan chains its die
//     operations, each waiting on the previous one or on a decode that
//     follows it, and a plan that frees the die early has only DMA and
//     ECC left. A program or erase holds the die for its whole phase.
//   - A suspension retires its phase's pending completion without
//     withdrawing it: the completion still fires, as a no-op, at the
//     phase's former end. These come on top of the live events.
//
// So live events number at most dies + 2·channels, and the test checks
// that exactly: the retired completions pending are the suspensions whose
// no-op has not fired yet. In-flight events in all must stay within twice
// the live bound, which leaves room for up to one retired completion per
// die and bus. On 40k-request sweeps of mds_1, YCSB-C, stg_0 and hm_0 the
// live count peaked at 24 of the 16-die, 4-channel device's 24, retired
// completions at 5. The arrival stream's unfired entries are not in the
// queue (sim.Engine.Feed) and are subtracted from Pending.
//
// The runs: write-heavy stg_0 on the small device, where garbage
// collection and read-priority suspensions add program and erase events,
// and read-dominant mds_1 under PnAR² at 2K P/E and 12 months, where deep
// pipelined retry ladders keep every die, bus and ECC unit busy. Each also
// checks the run's event counters against what stepping observed.
func TestPendingEventsStayBounded(t *testing.T) {
	gc := tinyConfig()
	gc.PEC, gc.RetentionMonths = 2000, 6
	deep := ExperimentConfig()
	deep.Scheme = core.PnAR2
	deep.PEC, deep.RetentionMonths = 2000, 12
	for _, c := range []struct {
		name     string
		cfg      Config
		workload string
	}{
		{"gc", gc, "stg_0"},
		{"deep-retry", deep, "mds_1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			recs := workloadTrace(t, c.cfg, c.workload, 10000, 1000)
			dev, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := dev.start(recs); err != nil {
				t.Fatal(err)
			}
			live := c.cfg.Dies() + 2*c.cfg.Channels
			var peak int
			var steps, ties int64
			var last sim.Time
			for dev.eng.Step() {
				now := dev.eng.Now()
				if steps > 0 && now == last {
					ties++
				}
				steps, last = steps+1, now
				inFlight := dev.eng.Pending() - (len(recs) - int(dev.stats.Submitted))
				retired := int(dev.stats.Suspensions - dev.stats.RetiredCompletions)
				if inFlight > 2*live || inFlight-retired > live {
					t.Fatalf("%d events in flight at %v, %d of them live; bounds %d and %d",
						inFlight, now, inFlight-retired, 2*live, live)
				}
				peak = max(peak, inFlight)
			}
			st, err := dev.finish()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("peak %d events in flight (bound %d) over %d events, %d ties, %d retired",
				peak, 2*live, st.EventsFired, st.EventTies, st.RetiredCompletions)
			if st.EventsFired != steps || st.EventTies != ties {
				t.Errorf("Stats count %d events and %d ties, stepping saw %d and %d",
					st.EventsFired, st.EventTies, steps, ties)
			}
			if st.RetiredCompletions != st.Suspensions {
				t.Errorf("%d retired completions fired, want one per suspension (%d)",
					st.RetiredCompletions, st.Suspensions)
			}
		})
	}
}
