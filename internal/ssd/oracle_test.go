package ssd

import (
	"testing"

	"readretry/internal/core"
	"readretry/internal/nand"
	"readretry/internal/sim"
	"readretry/internal/trace"
	"readretry/internal/workload"
)

// TestQD1MatchesAnalyticPlan is the queue-depth-1 oracle: reads spaced far
// enough apart never contend, so each one's response time is exactly its
// controller plan's uncontended latency. The expected plan is resolved on a
// twin device, and the read's timings must carry the configured tECC, the
// paper's and a non-default one.
func TestQD1MatchesAnalyticPlan(t *testing.T) {
	const reads = 40
	const gap = 20 * sim.Millisecond
	conds := []struct {
		pec    int
		months float64
		tempC  float64
	}{{0, 0, 30}, {1000, 6, 30}, {2000, 12, 30}, {2500, 18, 25}}
	fallbacks := 0
	for _, tecc := range []sim.Time{nand.DefaultTiming().TECC, 23 * sim.Microsecond} {
		for _, scheme := range []core.Scheme{core.Baseline, core.PR2, core.AR2, core.PnAR2, core.NoRR} {
			for _, c := range conds {
				cfg := tinyConfig()
				cfg.Timing.TECC = tecc
				cfg.Scheme = scheme
				cfg.PEC, cfg.RetentionMonths, cfg.TempC = c.pec, c.months, c.tempC
				twin, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				recs := make([]trace.Record, reads)
				want := make([]sim.Time, reads)
				for i := range recs {
					// Spread the reads over dies, planes and blocks.
					lpn := int64(i) * 7919 % cfg.TotalPages()
					recs[i] = trace.Record{
						Arrival: sim.Time(i) * gap,
						Offset:  lpn * workload.PageSize,
						Size:    workload.PageSize,
					}
					if _, ok := twin.flash.Lookup(lpn); !ok {
						if _, err := twin.flash.Precondition(lpn); err != nil {
							t.Fatal(err)
						}
					}
					ppn, _ := twin.flash.Lookup(lpn)
					oc := twin.resolveRead(ppn)
					if oc.timings.ECC != cfg.Timing.TECC {
						t.Fatalf("read timings carry tECC %v, config says %v", oc.timings.ECC, cfg.Timing.TECC)
					}
					plan := core.BuildPlan(scheme, oc.nrr, oc.timings, core.Options{})
					want[i] = plan.Latency()
					if oc.fallback {
						fallbacks++
						want[i] = plan.DieHold() +
							core.BuildPlan(core.Baseline, oc.fbNRR, oc.timings, core.Options{}).Latency()
					}
				}
				dev, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				st, err := dev.Run(recs)
				if err != nil {
					t.Fatal(err)
				}
				// Each read completes before the next arrives, so samples are
				// in arrival order.
				if len(st.readSamples) != reads {
					t.Fatalf("%v at %+v: %d read samples, want %d", scheme, c, len(st.readSamples), reads)
				}
				for i, got := range st.readSamples {
					if got != want[i].Microseconds() {
						t.Errorf("%v at %+v, tECC %v: read %d took %vus, plan says %v",
							scheme, c, tecc, i, got, want[i])
					}
				}
			}
		}
	}
	if fallbacks == 0 {
		t.Error("no read took the AR² fallback path; the oracle does not cover it")
	}
}
