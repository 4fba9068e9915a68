package vth

import (
	"math"
	"testing"
	"testing/quick"

	"readretry/internal/nand"
)

// Additional model behaviour tests beyond the calibration anchors.

func TestStepErrorsBeyondSuccessStayAtFloor(t *testing.T) {
	// Steps past the success point keep reading near V_OPT: the error
	// count must not rebound within the table.
	m := defaultModel()
	c := cond(1000, 6)
	pg := PageID{Chip: 1, Block: 2, Page: 3}
	n := m.RetrySteps(pg, c)
	if n < 3 {
		t.Fatalf("expected a retried read, got %d steps", n)
	}
	at := m.StepErrors(pg, c, nand.CSB, n, nand.Reduction{})
	past := m.StepErrors(pg, c, nand.CSB, n+5, nand.Reduction{})
	if past != at {
		t.Errorf("errors rebound past success: step N=%d, step N+5=%d", at, past)
	}
}

func TestStepErrorsMonotoneApproachingSuccess(t *testing.T) {
	m := defaultModel()
	c := cond(2000, 12)
	pg := PageID{Chip: 5, Block: 40, Page: 100}
	n := m.RetrySteps(pg, c)
	prev := math.MaxInt
	for k := 0; k <= n; k++ {
		e := m.StepErrors(pg, c, nand.CSB, k, nand.Reduction{})
		if e > prev {
			t.Fatalf("errors increased from step %d to %d: %d -> %d", k-1, k, prev, e)
		}
		prev = e
	}
}

func TestTempAddZeroAtReference(t *testing.T) {
	m := defaultModel()
	if got := m.TempAdd(cond(2000, 12)); got != 0 {
		t.Errorf("85°C temp add = %d, want 0", got)
	}
	hot := Condition{PEC: 2000, RetentionMonths: 12, TempC: 100}
	if got := m.TempAdd(hot); got != 0 {
		t.Errorf("above-reference temp add = %d, want 0 (clamped)", got)
	}
}

func TestTempAddScalesWithSeverity(t *testing.T) {
	m := defaultModel()
	fresh := m.TempAdd(Condition{PEC: 0, RetentionMonths: 0, TempC: 30})
	worn := m.TempAdd(Condition{PEC: 2000, RetentionMonths: 12, TempC: 30})
	if fresh >= worn {
		t.Errorf("temp add should grow with wear: fresh %d vs worn %d", fresh, worn)
	}
}

func TestNegativeRetentionTreatedAsZero(t *testing.T) {
	m := defaultModel()
	a := m.Drift(Condition{PEC: 1000, RetentionMonths: -5, TempC: 85})
	b := m.Drift(cond(1000, 0))
	if a != b {
		t.Errorf("negative retention drift %v != zero retention drift %v", a, b)
	}
}

func TestSeedChangesPopulationNotStatistics(t *testing.T) {
	// Two seeds realize different page variation but near-identical
	// population statistics (they model different chip batches from the
	// same process).
	a := NewModel(DefaultParams(), 1)
	b := NewModel(DefaultParams(), 99)
	c := cond(2000, 12)
	var meanA, meanB float64
	pages := samplePages(3000)
	for _, pg := range pages {
		meanA += float64(a.RetrySteps(pg, c))
		meanB += float64(b.RetrySteps(pg, c))
	}
	meanA /= float64(len(pages))
	meanB /= float64(len(pages))
	if math.Abs(meanA-meanB) > 0.5 {
		t.Errorf("population means diverge across seeds: %.2f vs %.2f", meanA, meanB)
	}
}

func TestReadResultConsistencyProperty(t *testing.T) {
	// For any page/condition: the reported final errors of a successful
	// read equal StepErrors at the success step, and never exceed the
	// capability.
	m := defaultModel()
	f := func(chipIdx, block, page uint16, pecRaw uint8, moRaw uint8) bool {
		pg := PageID{Chip: int(chipIdx % 160), Block: int(block % 3776), Page: int(page % 576)}
		c := cond(int(pecRaw%21)*100, float64(moRaw%13))
		res := m.Read(pg, c, nand.CSB, nand.Reduction{})
		if res.Failed {
			return false // never with default timing
		}
		if res.FinalErrors > m.Capability() {
			return false
		}
		return m.StepErrors(pg, c, nand.CSB, res.RetrySteps, nand.Reduction{}) == res.FinalErrors
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLadderExhaustion(t *testing.T) {
	// A hypothetical condition beyond the table's reach must fail cleanly.
	p := DefaultParams()
	p.MaxLadderSteps = 5
	m := NewModel(p, 1)
	res := m.Read(PageID{}, cond(2000, 12), nand.CSB, nand.Reduction{})
	if !res.Failed {
		t.Fatal("drift beyond a 5-entry ladder should fail")
	}
	if res.RetrySteps != 5 {
		t.Errorf("failed read should report the exhausted ladder (%d steps)", res.RetrySteps)
	}
}

func TestWallDominatesFloorFarFromOptimum(t *testing.T) {
	m := defaultModel()
	c := cond(2000, 12)
	pg := PageID{Chip: 7, Block: 9, Page: 11}
	early := m.StepErrors(pg, c, nand.CSB, 0, nand.Reduction{})
	floor := m.FloorErrors(pg, c, nand.CSB)
	if early < 10*floor {
		t.Errorf("initial-read errors (%d) should dwarf the floor (%d) at 20 steps of drift",
			early, floor)
	}
}

func TestParamsAccessors(t *testing.T) {
	m := defaultModel()
	if m.Params().CapabilityPerKiB != 72 || m.Capability() != 72 {
		t.Error("capability accessors disagree with the configuration")
	}
}
