package ssd

import "testing"

// TestDieStateLaw steps a run that suspends programs and erases and
// collects garbage, and after every event checks the die's explicit state:
//   - a running program/erase phase holds a busy die and names its txn;
//   - a suspended phase still names its txn, and resumes that same txn;
//   - a plane's GC slot with moves left is active;
//   - an active slot keeps naming one block until that block's erase
//     completes, and the block holds no more valid pages than the slot
//     has moves left.
//
// Once the run drains, the FTL must keep its conservation law (ftl.Audit).
func TestDieStateLaw(t *testing.T) {
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 2000, 6
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.start(workloadTrace(t, cfg, "stg_0", 4000, 1500)); err != nil {
		t.Fatal(err)
	}
	type slotSeen struct {
		active        bool
		block, erases int
	}
	planes := cfg.Geometry.PlanesPerDie
	suspendedTxn := make([]*txn, len(dev.dies))
	slots := make([]slotSeen, len(dev.dies)*planes)
	resumes, jobsWithMoves := 0, 0
	for dev.eng.Step() {
		now := dev.eng.Now()
		for i, d := range dev.dies {
			switch d.phase.state {
			case phaseRunning:
				if !d.busy || d.cur == nil {
					t.Fatalf("die %d at %v: running phase on busy=%t, cur %v", i, now, d.busy, d.cur)
				}
				if s := suspendedTxn[i]; s != nil {
					if d.cur != s {
						t.Fatalf("die %d at %v: resumed txn %p, suspended %p", i, now, d.cur, s)
					}
					suspendedTxn[i] = nil
					resumes++
				}
			case phaseSuspended:
				if d.cur == nil {
					t.Fatalf("die %d at %v: suspended phase without a txn", i, now)
				}
				if s := suspendedTxn[i]; s == nil {
					suspendedTxn[i] = d.cur
				} else if d.cur != s {
					t.Fatalf("die %d at %v: suspended txn changed from %p to %p", i, now, s, d.cur)
				}
			case phaseNone:
				if suspendedTxn[i] != nil {
					t.Fatalf("die %d at %v: suspended phase ended without resuming", i, now)
				}
			}
			for pl, g := range d.gc {
				if g.moves > 0 && !g.active {
					t.Fatalf("die %d plane %d at %v: %d moves left on an idle slot", i, pl, now, g.moves)
				}
				if g.active {
					if v := dev.flash.BlockValid(d.id, pl, g.block); v > g.moves {
						t.Fatalf("die %d plane %d at %v: block %d holds %d valid pages, slot has %d moves left",
							i, pl, now, g.block, v, g.moves)
					}
				}
				seen := &slots[i*planes+pl]
				if seen.active && dev.flash.BlockErases(d.id, pl, seen.block) == seen.erases &&
					(!g.active || g.block != seen.block) {
					t.Fatalf("die %d plane %d at %v: slot left block %d before erasing it", i, pl, now, seen.block)
				}
				if g.active && (!seen.active || g.block != seen.block) && g.moves > 0 {
					jobsWithMoves++
				}
				*seen = slotSeen{active: g.active, block: g.block}
				if g.active {
					seen.erases = dev.flash.BlockErases(d.id, pl, g.block)
				}
			}
		}
	}
	st, err := dev.finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.flash.Audit(); err != nil {
		t.Fatal(err)
	}
	if st.Suspensions == 0 || resumes == 0 || jobsWithMoves == 0 {
		t.Fatalf("run never reached the states it is meant to cover: %d suspensions, %d resumes, %d GC jobs with moves",
			st.Suspensions, resumes, jobsWithMoves)
	}
	for i, d := range dev.dies {
		for pl, g := range d.gc {
			if g != (gcSlot{}) {
				t.Errorf("die %d plane %d: slot %+v left after the run", i, pl, g)
			}
		}
	}
	t.Logf("%d suspensions, %d resumes, %d GC jobs with moves", st.Suspensions, resumes, jobsWithMoves)
}
