package core

import (
	"testing"

	"readretry/internal/sim"
	"readretry/internal/vth"
)

// Structural tests on the operation trees: op counts, kinds, resource tags,
// and step labels per scheme — the contract the SSD executor relies on.

func countKind(p Plan, k OpKind) int {
	n := 0
	for _, op := range p.Ops {
		if op.Kind == k {
			n++
		}
	}
	return n
}

func TestBaselinePlanStructure(t *testing.T) {
	tm := paperTimings()
	nrr := 4
	p := BuildPlan(Baseline, nrr, tm, Options{})
	if got := countKind(p, OpSense); got != nrr+1 {
		t.Errorf("senses = %d, want %d", got, nrr+1)
	}
	if got := countKind(p, OpDMA); got != nrr+1 {
		t.Errorf("DMAs = %d, want %d", got, nrr+1)
	}
	if got := countKind(p, OpECC); got != nrr+1 {
		t.Errorf("ECCs = %d, want %d", got, nrr+1)
	}
	if countKind(p, OpSetFeature) != 0 || countKind(p, OpReset) != 0 {
		t.Error("baseline must not issue SET FEATURE or RESET")
	}
	// Every sense after the first depends on the previous step's ECC.
	for _, op := range p.Ops {
		if op.Kind == OpSense && op.Step > 0 {
			if op.Parent < 0 || p.Ops[op.Parent].Kind != OpECC {
				t.Errorf("retry sense at step %d should gate on ECC", op.Step)
			}
		}
	}
}

func TestPR2PlanStructure(t *testing.T) {
	tm := paperTimings()
	nrr := 4
	p := BuildPlan(PR2, nrr, tm, Options{})
	if got := countKind(p, OpReset); got != 1 {
		t.Errorf("resets = %d, want 1 (speculation cleanup)", got)
	}
	// Senses chain on the die: each retry sense depends on a sense.
	for _, op := range p.Ops {
		if op.Kind == OpSense && op.Step > 0 && op.Step <= nrr {
			if p.Ops[op.Parent].Kind != OpSense {
				t.Errorf("PR2 sense at step %d should chain on the previous sense", op.Step)
			}
		}
	}
	// The reset carries the speculative step's label.
	reset := p.Ops[p.ReleaseOp]
	if reset.Kind != OpReset || reset.Step != nrr+1 {
		t.Errorf("release op = %v step %d, want reset of step %d", reset.Kind, reset.Step, nrr+1)
	}
}

func TestAR2PlanStructure(t *testing.T) {
	tm := paperTimings()
	nrr := 3
	p := BuildPlan(AR2, nrr, tm, Options{})
	// One SET FEATURE to program the reduction, one to roll back.
	if got := countKind(p, OpSetFeature); got != 2 {
		t.Errorf("SET FEATUREs = %d, want 2", got)
	}
	// Retry senses use the reduced duration, the initial one the default.
	for _, op := range p.Ops {
		if op.Kind != OpSense {
			continue
		}
		want := tm.SenseReduced
		if op.Step == 0 {
			want = tm.SenseDefault
		}
		if op.Dur != want {
			t.Errorf("sense at step %d duration %v, want %v", op.Step, op.Dur, want)
		}
	}
}

func TestPnAR2PlanStructure(t *testing.T) {
	tm := paperTimings()
	nrr := 3
	p := BuildPlan(PnAR2, nrr, tm, Options{})
	if got := countKind(p, OpReset); got != 2 {
		t.Errorf("resets = %d, want 2 (speculation kill + final cleanup)", got)
	}
	if got := countKind(p, OpSetFeature); got != 2 {
		t.Errorf("SET FEATUREs = %d, want 2", got)
	}
	if got := countKind(p, OpSense); got != nrr+1 {
		t.Errorf("senses = %d, want %d", got, nrr+1)
	}
}

func TestResponseAlwaysECC(t *testing.T) {
	tm := paperTimings()
	for _, s := range []Scheme{Baseline, PR2, AR2, PnAR2, NoRR} {
		for _, nrr := range []int{0, 1, 7} {
			p := BuildPlan(s, nrr, tm, Options{})
			if p.Ops[p.ResponseOp].Kind != OpECC {
				t.Errorf("%v nrr=%d: response op is %v, want ECC", s, nrr, p.Ops[p.ResponseOp].Kind)
			}
		}
	}
}

func TestDieOpsNeverOverlapWithinPlan(t *testing.T) {
	// The die is a single unit: its ops (sense/set/reset) must serialize
	// on the dependency structure alone.
	tm := paperTimings()
	for _, s := range []Scheme{Baseline, PR2, AR2, PnAR2} {
		for _, nrr := range []int{0, 1, 5, 12} {
			p := BuildPlan(s, nrr, tm, Options{})
			finish := make([]sim.Time, len(p.Ops))
			start := make([]sim.Time, len(p.Ops))
			for i, op := range p.Ops {
				var st sim.Time
				if op.Parent >= 0 {
					st = finish[op.Parent]
				}
				start[i] = st
				finish[i] = st + op.Dur
			}
			for i, a := range p.Ops {
				if a.Res != ResDie {
					continue
				}
				for j, b := range p.Ops {
					if i >= j || b.Res != ResDie {
						continue
					}
					if start[i] < finish[j] && start[j] < finish[i] {
						t.Errorf("%v nrr=%d: die ops %d and %d overlap", s, nrr, i, j)
					}
				}
			}
		}
	}
}

func TestStepTagsMonotone(t *testing.T) {
	tm := paperTimings()
	for _, s := range []Scheme{Baseline, PR2, AR2, PnAR2} {
		p := BuildPlan(s, 5, tm, Options{})
		for i, op := range p.Ops {
			if op.Parent >= 0 && p.Ops[op.Parent].Step > op.Step {
				t.Errorf("%v: op %d (step %d) depends on later step %d",
					s, i, op.Step, p.Ops[op.Parent].Step)
			}
		}
	}
}

func TestDieHoldNeverBelowLatencyMinusECC(t *testing.T) {
	// The die is released no earlier than the final transfer's completion:
	// at most tECC of the response can run after release.
	tm := paperTimings()
	for _, s := range []Scheme{Baseline, PR2, AR2, PnAR2, NoRR} {
		for _, nrr := range []int{0, 2, 9} {
			p := BuildPlan(s, nrr, tm, Options{})
			if p.DieHold() < p.Latency()-tm.ECC {
				t.Errorf("%v nrr=%d: die hold %v < latency-tECC %v",
					s, nrr, p.DieHold(), p.Latency()-tm.ECC)
			}
		}
	}
}

// TestPlansAreTreesRootedAtOpZero pins the shape the ssd executor relies
// on: it starts op 0 and then each op when its one parent completes. Every
// scheme, every ladder depth and every Options combination must build a
// tree rooted at op 0, and Finalize must refuse an op whose parent comes
// after it. An adaptive scheme's ReleaseOp is a leaf at every depth a
// failed pass can have (it walks the whole ladder, so nrr ≥ 1): a re-read
// that Then hangs under it is the only op its completion starts, as when
// the simulator started the re-read as a second plan. At nrr = 0 AR²'s
// plain read releases the die at its DMA, whose ECC still follows.
func TestPlansAreTreesRootedAtOpZero(t *testing.T) {
	tm := paperTimings()
	for _, s := range []Scheme{Baseline, PR2, AR2, PnAR2, NoRR} {
		for nrr := 0; nrr <= vth.DefaultParams().MaxLadderSteps; nrr++ {
			for _, opts := range []Options{{}, {NoSpeculativeReset: true}, {PerStepSetFeature: true},
				{NoSpeculativeReset: true, PerStepSetFeature: true}} {
				p := BuildPlan(s, nrr, tm, opts)
				if err := finalizeErr(p); err != nil {
					t.Fatalf("%v nrr=%d %+v: %v", s, nrr, opts, err)
				}
				reached := 1 // op 0
				for i, op := range p.Ops {
					if (i == 0) != (op.Parent < 0) {
						t.Fatalf("%v nrr=%d %+v: op %d has parent %d", s, nrr, opts, i, op.Parent)
					}
					reached += len(p.Dependents(i))
				}
				if deps := p.Dependents(p.ReleaseOp); s.Adaptive() && nrr > 0 && len(deps) != 0 {
					t.Fatalf("%v nrr=%d %+v: ReleaseOp %d has dependents %v", s, nrr, opts, p.ReleaseOp, deps)
				}
				if reached != len(p.Ops) {
					t.Fatalf("%v nrr=%d %+v: the tree from op 0 reaches %d of %d ops", s, nrr, opts, reached, len(p.Ops))
				}
			}
		}
	}

	forward := Plan{Ops: []Op{{Kind: OpSense, Parent: -1}, {Kind: OpDMA, Parent: 2}, {Kind: OpECC, Parent: 0}}}
	defer func() {
		if recover() == nil {
			t.Error("Finalize accepted an op whose parent comes after it")
		}
	}()
	forward.Finalize()
}
