package chip

import (
	"testing"

	"readretry/internal/nand"
	"readretry/internal/sim"
	"readretry/internal/vth"
)

func testChip(t *testing.T) *Chip {
	t.Helper()
	model := vth.NewModel(vth.DefaultParams(), 1)
	c, err := New(nand.DefaultGeometry(), nand.DefaultTiming(), model, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadGeometry(t *testing.T) {
	model := vth.NewModel(vth.DefaultParams(), 1)
	bad := nand.DefaultGeometry()
	bad.PagesPerBlock = 577
	if _, err := New(bad, nand.DefaultTiming(), model, 0); err == nil {
		t.Error("expected error for invalid geometry")
	}
}

func TestBlockStatePreconditioning(t *testing.T) {
	c := testChip(t)
	c.SetCondition(1500, 6, 55)
	if cond := c.at(55); cond.PEC != 1500 || cond.RetentionMonths != 6 || cond.TempC != 55 {
		t.Errorf("condition %+v after SetCondition(1500, 6, 55)", cond)
	}
	if cond := c.at(30); cond.PEC != 1500 || cond.RetentionMonths != 6 || cond.TempC != 30 {
		t.Errorf("condition at 30 °C = %+v, want the block state at 30 °C", cond)
	}
	if c.Temp() != 55 {
		t.Errorf("resident temperature = %g, want 55", c.Temp())
	}
}

func TestSetFeatureAffectsSenseTime(t *testing.T) {
	c := testChip(t)
	pt := c.Geometry().PageType(1) // CSB page
	// senseTime prices the page's tR under the current feature register.
	senseTime := func() sim.Time {
		return c.timing.TRKind(c.Geometry().CellKind(), pt, c.Features().Reduction())
	}
	def := senseTime()
	if def != 117*sim.Microsecond {
		t.Fatalf("default CSB tR = %v, want 117us", def)
	}
	var reg nand.FeatureRegister
	reg.Set(6, 0, 0) // 40 % tPRE reduction
	if lat := c.SetFeature(reg); lat != sim.Microsecond {
		t.Errorf("SET FEATURE latency = %v, want 1us", lat)
	}
	reduced := senseTime()
	// 40 % tPRE: sensing 24×0.6+5+10 = 29.4 µs; CSB ×3 = 88.2 µs.
	if reduced <= 85*sim.Microsecond || reduced >= 90*sim.Microsecond {
		t.Errorf("reduced CSB tR = %v, want ≈ 88.2us", reduced)
	}
	c.ResetFeature()
	if senseTime() != def {
		t.Error("ResetFeature did not restore default timing")
	}
}

func TestReadRetryFreshVsAged(t *testing.T) {
	c := testChip(t)
	addr := nand.Address{Die: 0, Plane: 0, Block: 3, Page: 10}

	c.SetCondition(0, 0, 30)
	fresh := c.ReadRetry(addr, 30)
	if fresh.RetrySteps != 0 || fresh.Failed {
		t.Errorf("fresh read: %+v, want 0 retries", fresh)
	}

	c.SetCondition(2000, 12, 30)
	aged := c.ReadRetry(addr, 30)
	if aged.RetrySteps < 15 {
		t.Errorf("aged read took only %d retries, want many", aged.RetrySteps)
	}
	if aged.Failed {
		t.Error("aged read should still succeed with default timing")
	}
}

func TestReadRetryPanicsOnBadAddress(t *testing.T) {
	c := testChip(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid address")
		}
	}()
	c.ReadRetry(nand.Address{Die: 5}, 30)
}

func TestStepErrorsDecreaseTowardSuccess(t *testing.T) {
	c := testChip(t)
	c.SetCondition(2000, 12, 30)
	addr := nand.Address{Die: 0, Plane: 0, Block: 7, Page: 4}
	res := c.ReadRetry(addr, 85)
	n := res.RetrySteps
	if n < 4 {
		t.Fatalf("expected a deep retry, got %d steps", n)
	}
	if e := c.StepErrors(addr, 85, n); e != res.FinalErrors {
		t.Errorf("StepErrors at success step = %d, ReadRetry reports %d", e, res.FinalErrors)
	}
	if c.StepErrors(addr, 85, n-2) <= c.StepErrors(addr, 85, n-1) {
		t.Error("errors should shrink approaching the success step")
	}
}

func TestFleetSharedModelDistinctChips(t *testing.T) {
	f, err := NewFleet(4, nand.DefaultGeometry(), nand.DefaultTiming(), vth.DefaultParams(), 9)
	if err != nil {
		t.Fatal(err)
	}
	f.SetCondition(1000, 6, 30)
	addr := nand.Address{Die: 0, Plane: 0, Block: 2, Page: 5}
	// Same address on different chips shows process variation but the same
	// underlying model.
	drifts := map[float64]bool{}
	for _, c := range f.Chips {
		drifts[c.Model().PageDrift(c.pageID(addr), c.at(85))] = true
	}
	if len(drifts) < 2 {
		t.Error("chips in a fleet should exhibit process variation")
	}
	if f.Chips[0].Model() != f.Chips[3].Model() {
		t.Error("fleet chips should share one model")
	}
}

func TestDefaultFleetMatchesPaperScale(t *testing.T) {
	f := DefaultFleet(1)
	if len(f.Chips) != 160 {
		t.Errorf("fleet size = %d, want 160 chips", len(f.Chips))
	}
	for i, c := range f.Chips {
		if c.index != i {
			t.Fatalf("chip %d has index %d", i, c.index)
		}
	}
}

func TestReadRetryDeterministicAcrossCalls(t *testing.T) {
	c := testChip(t)
	c.SetCondition(1000, 3, 30)
	addr := nand.Address{Die: 0, Plane: 1, Block: 100, Page: 33}
	a := c.ReadRetry(addr, 55)
	b := c.ReadRetry(addr, 55)
	if a != b {
		t.Errorf("ReadRetry not deterministic: %+v vs %+v", a, b)
	}
}
