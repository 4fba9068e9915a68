package vth

import (
	"math"
	"testing"
	"testing/quick"

	"readretry/internal/nand"
)

func defaultModel() *Model { return NewModel(DefaultParams(), 1) }

// cond is shorthand for an 85 °C condition, the characterization reference.
func cond(pec int, months float64) Condition {
	return Condition{PEC: pec, RetentionMonths: months, TempC: 85}
}

func samplePages(n int) []PageID {
	pages := make([]PageID, 0, n)
	for i := 0; i < n; i++ {
		pages = append(pages, PageID{
			Chip:  i % 160,
			Block: (i / 160) % 120,
			Page:  (i * 7) % 576,
		})
	}
	return pages
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := DefaultParams()
	bad.LadderStepMV = 0
	if bad.Validate() == nil {
		t.Error("zero ladder step should be invalid")
	}
	bad = DefaultParams()
	bad.SeverityFloor = 0
	if bad.Validate() == nil {
		t.Error("zero severity floor should be invalid")
	}
	bad = DefaultParams()
	bad.CapabilityPerKiB = 0
	if bad.Validate() == nil {
		t.Error("zero capability should be invalid")
	}
}

func TestNewModelPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid params")
		}
	}()
	bad := DefaultParams()
	bad.MaxLadderSteps = 0
	NewModel(bad, 1)
}

// --- Figure 5 anchors: retry-step counts --------------------------------

func TestFreshPageNeedsNoRetry(t *testing.T) {
	// §3.1: "a fresh page (with no P/E cycling and 0 retention age) can be
	// read without a read-retry."
	m := defaultModel()
	for _, pg := range samplePages(2000) {
		if n := m.RetrySteps(pg, cond(0, 0)); n != 0 {
			t.Fatalf("fresh page %v needs %d retry steps, want 0", pg, n)
		}
	}
}

func TestThreeMonthZeroPECNeedsMoreThanThreeSteps(t *testing.T) {
	// §1/§3.1: "under a 3-month data retention age at zero P/E cycles …
	// every read requires more than three retry steps."
	m := defaultModel()
	for _, pg := range samplePages(5000) {
		if n := m.RetrySteps(pg, cond(0, 3)); n <= 3 {
			t.Fatalf("page %v needs only %d steps at (0, 3mo), want > 3", pg, n)
		}
	}
}

func TestSixMonthZeroPECSevenStepFraction(t *testing.T) {
	// Figure 5 (left, dot-circle): 54.4 % of reads need ≥ 7 retry steps
	// under a 6-month retention age with no P/E cycling.
	m := defaultModel()
	pages := samplePages(5000)
	atLeast7 := 0
	for _, pg := range pages {
		if m.RetrySteps(pg, cond(0, 6)) >= 7 {
			atLeast7++
		}
	}
	frac := float64(atLeast7) / float64(len(pages))
	if frac < 0.35 || frac > 0.75 {
		t.Errorf("P(N_RR ≥ 7) at (0, 6mo) = %.3f, paper reports 0.544", frac)
	}
}

func TestOneKPECThreeMonthsNeedsAtLeastEight(t *testing.T) {
	// Figure 5 (center, dot-circle): at 1K P/E cycles and a 3-month
	// retention age, 100 % of reads need ≥ 8 retry steps.
	m := defaultModel()
	for _, pg := range samplePages(5000) {
		if n := m.RetrySteps(pg, cond(1000, 3)); n < 8 {
			t.Fatalf("page %v needs only %d steps at (1K, 3mo), want ≥ 8", pg, n)
		}
	}
}

func TestWorstCaseAverageRetrySteps(t *testing.T) {
	// §3.1: "the average number of retry steps significantly increases to
	// 19.9 under a 1-year retention age at 2K P/E cycles."
	m := defaultModel()
	pages := samplePages(5000)
	sum, max := 0.0, 0
	for _, pg := range pages {
		n := m.RetrySteps(pg, cond(2000, 12))
		sum += float64(n)
		if n > max {
			max = n
		}
	}
	avg := sum / float64(len(pages))
	if avg < 18.5 || avg > 21.5 {
		t.Errorf("mean N_RR at (2K, 12mo) = %.2f, paper reports 19.9", avg)
	}
	// Figure 5's y-axis tops out at 25.
	if max > 25 {
		t.Errorf("max N_RR at (2K, 12mo) = %d, exceeds Figure 5's range", max)
	}
}

func TestTReadAmplification(t *testing.T) {
	// §3.1: N_RR = 19.9 "increases t_READ by 21× on average": with
	// Equation 2/3, t_READ scales by (1 + N_RR).
	m := defaultModel()
	avg := m.Drift(cond(2000, 12))
	amplification := 1 + avg
	if amplification < 20 || amplification > 22 {
		t.Errorf("t_READ amplification = %.1f×, paper reports 21×", amplification)
	}
}

func TestRetryStepsMonotoneInCondition(t *testing.T) {
	m := defaultModel()
	months := []float64{0, 1, 3, 6, 9, 12}
	pecs := []int{0, 500, 1000, 1500, 2000}
	for _, pec := range pecs {
		prev := -1.0
		for _, mo := range months {
			d := m.Drift(cond(pec, mo))
			if d < prev {
				t.Errorf("drift not monotone in retention at %dK: %v < %v", pec/1000, d, prev)
			}
			prev = d
		}
	}
	for _, mo := range months {
		prev := -1.0
		for _, pec := range pecs {
			d := m.Drift(cond(pec, mo))
			if d < prev {
				t.Errorf("drift not monotone in PEC at %gmo: %v < %v", mo, d, prev)
			}
			prev = d
		}
	}
}

func TestPageDriftDeterministic(t *testing.T) {
	m := defaultModel()
	pg := PageID{Chip: 3, Block: 17, Page: 203}
	c := cond(1000, 6)
	a := m.PageDrift(pg, c)
	b := m.PageDrift(pg, c)
	if a != b {
		t.Errorf("PageDrift not deterministic: %v vs %v", a, b)
	}
	// A different model seed realizes different variation.
	m2 := NewModel(DefaultParams(), 2)
	if m2.PageDrift(pg, c) == a {
		t.Error("different seeds should give different page variation")
	}
}

func TestPageDriftBounded(t *testing.T) {
	m := defaultModel()
	p := m.Params()
	c := cond(2000, 12)
	mean := m.Drift(c)
	maxFactor := (1 + p.BlockFactorSpread) * (1 + p.PageFactorSpread)
	minFactor := (1 - p.BlockFactorSpread) * (1 - p.PageFactorSpread)
	hi := mean*maxFactor + 3*p.DriftJitterSteps + 1e-9
	lo := mean*minFactor - 3*p.DriftJitterSteps - 1e-9
	for _, pg := range samplePages(3000) {
		d := m.PageDrift(pg, c)
		if d > hi || d < lo {
			t.Fatalf("PageDrift(%v) = %v outside [%v, %v]", pg, d, lo, hi)
		}
	}
}

// --- Figure 7 anchors: final-step error floor ----------------------------

func TestFinalStepErrorFloorAnchors(t *testing.T) {
	m := defaultModel()
	cases := []struct {
		c         Condition
		paper     int
		tolerance int
	}{
		{cond(0, 3), 15, 4},
		{cond(1000, 12), 30, 4},
		{cond(2000, 12), 35, 4},
		{Condition{PEC: 2000, RetentionMonths: 12, TempC: 30}, 40, 4},
	}
	for _, tc := range cases {
		got := m.MaxFloorErrors(tc.c, nand.CSB)
		if got < tc.paper-tc.tolerance || got > tc.paper+tc.tolerance {
			t.Errorf("M_ERR%v = %d, paper reports %d", tc.c, got, tc.paper)
		}
	}
}

func TestWorstCaseECCMargin(t *testing.T) {
	// §5.1: even M_ERR(2K, 12) at 30 °C leaves ≥ 44.4 % of the 72-bit
	// capability unused.
	m := defaultModel()
	worst := m.MaxFloorErrors(Condition{PEC: 2000, RetentionMonths: 12, TempC: 30}, nand.CSB)
	margin := float64(72-worst) / 72
	if margin < 0.40 {
		t.Errorf("worst-case ECC margin = %.1f%%, paper reports 44.4%%", margin*100)
	}
}

func TestTemperatureRaisesErrors(t *testing.T) {
	// §5.1: M_ERR at 30 °C / 55 °C exceeds 85 °C by ≈5 / ≈3 errors.
	m := defaultModel()
	c85 := cond(2000, 12)
	c55 := Condition{PEC: 2000, RetentionMonths: 12, TempC: 55}
	c30 := Condition{PEC: 2000, RetentionMonths: 12, TempC: 30}
	e85 := m.MaxFloorErrors(c85, nand.CSB)
	e55 := m.MaxFloorErrors(c55, nand.CSB)
	e30 := m.MaxFloorErrors(c30, nand.CSB)
	if d := e30 - e85; d < 4 || d > 6 {
		t.Errorf("30°C adds %d errors at worst case, paper reports ≈5", d)
	}
	if d := e55 - e85; d < 2 || d > 4 {
		t.Errorf("55°C adds %d errors at worst case, paper reports ≈3", d)
	}
}

func TestFloorErrorsNeverExceedMax(t *testing.T) {
	m := defaultModel()
	c := cond(2000, 12)
	maxErr := m.MaxFloorErrors(c, nand.CSB)
	for _, pg := range samplePages(3000) {
		if e := m.FloorErrors(pg, c, nand.CSB); e > maxErr {
			t.Fatalf("page %v floor errors %d exceed max %d", pg, e, maxErr)
		}
	}
}

func TestCSBIsWorstPageType(t *testing.T) {
	// CSB pages sense three boundaries, so they accumulate 1.5× the errors
	// of LSB/MSB pages: the figure-7 envelope tracks CSB.
	m := defaultModel()
	c := cond(1000, 6)
	csb := m.MaxFloorErrors(c, nand.CSB)
	lsb := m.MaxFloorErrors(c, nand.LSB)
	msb := m.MaxFloorErrors(c, nand.MSB)
	if csb <= lsb || csb <= msb {
		t.Errorf("CSB floor (%d) should exceed LSB (%d) and MSB (%d)", csb, lsb, msb)
	}
}

// --- Figures 8–10 anchors: read-timing reduction penalties ---------------

func TestSafeIndividualReductionsAtWorstCase(t *testing.T) {
	// §5.2.1: at (2K, 12mo) we can safely reduce tPRE, tEVAL, and tDISCH by
	// 47 %, 10 %, and 27 % respectively — and not one register step more.
	m := defaultModel()
	c := cond(2000, 12)
	floor := m.MaxFloorErrors(c, nand.CSB)
	capability := m.Capability()

	safe := func(r nand.Reduction) bool {
		return floor+m.MaxTimingPenalty(c, r) <= capability
	}
	if !safe(nand.Reduction{Pre: nand.LevelFraction(7)}) { // 46.7 %
		t.Error("47% tPRE reduction should be safe at (2K, 12mo)")
	}
	if safe(nand.Reduction{Pre: nand.LevelFraction(8)}) { // 53.3 %
		t.Error("54% tPRE reduction should be unsafe at (2K, 12mo)")
	}
	if !safe(nand.Reduction{Eval: 0.10}) {
		t.Error("10% tEVAL reduction should be safe at (2K, 12mo)")
	}
	if safe(nand.Reduction{Eval: 0.20}) {
		t.Error("20% tEVAL reduction should be unsafe at (2K, 12mo)")
	}
	if !safe(nand.Reduction{Disch: nand.LevelFraction(4)}) { // 26.7 %
		t.Error("27% tDISCH reduction should be safe at (2K, 12mo)")
	}
	if safe(nand.Reduction{Disch: nand.LevelFraction(5)}) { // 33.3 %
		t.Error("34% tDISCH reduction should be unsafe at (2K, 12mo)")
	}
}

func TestEvalReductionCostlyEvenFresh(t *testing.T) {
	// §5.2.1: "Reducing tEVAL by 20% introduces 30 additional bit errors …
	// even for a fresh page."
	m := defaultModel()
	got := m.MaxTimingPenalty(cond(0, 0), nand.Reduction{Eval: 0.20})
	if got < 27 || got > 33 {
		t.Errorf("ΔM_ERR for 20%% tEVAL on a fresh page = %d, paper reports ≈30", got)
	}
}

func TestPrePenaltyAnchors(t *testing.T) {
	m := defaultModel()
	// §5.2.2: reducing tPRE by 54 % alone at (1K, 0) adds ≈35 errors.
	got := m.MaxTimingPenalty(cond(1000, 0), nand.Reduction{Pre: nand.LevelFraction(8)})
	if got < 31 || got > 40 {
		t.Errorf("ΔM_ERR for 54%% tPRE at (1K, 0) = %d, paper reports ≈35", got)
	}
	// §5.2.1: retention raises the penalty: ΔM(47%) at (2K,12) is ≈60 %
	// above (2K,0).
	aged := m.MaxTimingPenalty(cond(2000, 12), nand.Reduction{Pre: nand.LevelFraction(7)})
	fresh := m.MaxTimingPenalty(cond(2000, 0), nand.Reduction{Pre: nand.LevelFraction(7)})
	ratio := float64(aged) / float64(fresh)
	if ratio < 1.3 || ratio > 1.9 {
		t.Errorf("retention penalty ratio = %.2f, paper reports ≈1.6", ratio)
	}
}

func TestDischPenaltyAnchors(t *testing.T) {
	m := defaultModel()
	// §5.2.2: tDISCH −20 % alone at (1K, 0) adds ≈8 errors.
	got := m.MaxTimingPenalty(cond(1000, 0), nand.Reduction{Disch: 0.20})
	if got < 6 || got > 10 {
		t.Errorf("ΔM_ERR for 20%% tDISCH at (1K, 0) = %d, paper reports ≈8", got)
	}
	// §5.2.2: tDISCH −7 % adds at most 4 errors under every condition.
	worst := 0
	for _, pec := range []int{0, 1000, 2000} {
		for _, mo := range []float64{0, 3, 6, 9, 12} {
			for _, temp := range []float64{30, 55, 85} {
				c := Condition{PEC: pec, RetentionMonths: mo, TempC: temp}
				if p := m.MaxTimingPenalty(c, nand.Reduction{Disch: nand.LevelFraction(1)}); p > worst {
					worst = p
				}
			}
		}
	}
	if worst > 4 {
		t.Errorf("7%% tDISCH worst-case penalty = %d, paper reports ≤ 4", worst)
	}
}

func TestCombinedReductionSuperAdditive(t *testing.T) {
	// §5.2.2 / Figure 9: ⟨ΔtPRE, ΔtDISCH⟩ = ⟨54 %, 20 %⟩ at (1K, 0) pushes
	// M_ERR far beyond the ECC capability, although individually the two
	// reductions cost only ≈35 and ≈8 errors.
	m := defaultModel()
	c := cond(1000, 0)
	pre := m.MaxTimingPenalty(c, nand.Reduction{Pre: nand.LevelFraction(8)})
	disch := m.MaxTimingPenalty(c, nand.Reduction{Disch: 0.20})
	both := m.MaxTimingPenalty(c, nand.Reduction{Pre: nand.LevelFraction(8), Disch: 0.20})
	if both <= pre+disch {
		t.Errorf("combined penalty %d not super-additive (%d + %d)", both, pre, disch)
	}
	if floor := m.MaxFloorErrors(c, nand.CSB); floor+both <= m.Capability() {
		t.Errorf("combined reduction should exceed capability: %d + %d ≤ 72", floor, both)
	}
}

func TestTemperatureAmplifiesPenalty(t *testing.T) {
	// Figure 10: at (2K, 12mo), 30 °C adds up to ≈7 errors to the tPRE
	// penalty relative to 85 °C.
	m := defaultModel()
	r := nand.Reduction{Pre: nand.LevelFraction(6)} // 40 %
	hot := m.MaxTimingPenalty(cond(2000, 12), r)
	cold := m.MaxTimingPenalty(Condition{PEC: 2000, RetentionMonths: 12, TempC: 30}, r)
	if d := cold - hot; d < 5 || d > 9 {
		t.Errorf("30°C adds %d errors to 40%% tPRE penalty, paper reports ≈7", d)
	}
	mild := m.MaxTimingPenalty(Condition{PEC: 2000, RetentionMonths: 12, TempC: 55}, r)
	if mild <= hot || mild >= cold {
		t.Errorf("55°C penalty (%d) should sit between 85°C (%d) and 30°C (%d)", mild, hot, cold)
	}
}

func TestPenaltyZeroWithoutReduction(t *testing.T) {
	m := defaultModel()
	if p := m.MaxTimingPenalty(cond(2000, 12), nand.Reduction{}); p != 0 {
		t.Errorf("no reduction should cost nothing, got %d", p)
	}
}

func TestPenaltyMonotoneProperty(t *testing.T) {
	m := defaultModel()
	f := func(aRaw, bRaw float64) bool {
		a := math.Mod(math.Abs(aRaw), 0.6)
		b := math.Mod(math.Abs(bRaw), 0.6)
		if a > b {
			a, b = b, a
		}
		c := cond(1000, 6)
		return m.MaxTimingPenalty(c, nand.Reduction{Pre: a}) <=
			m.MaxTimingPenalty(c, nand.Reduction{Pre: b})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// --- Figure 4b: RBER ladder shape -----------------------------------------

func TestRBERCollapsesAtFinalStep(t *testing.T) {
	// Figure 4b: the RBER decreases gradually in the last retry steps and
	// drops drastically below the ECC capability at the final one.
	m := defaultModel()
	c := cond(2000, 12)
	var pg PageID
	found := false
	for _, cand := range samplePages(3000) {
		if m.RetrySteps(cand, c) >= 16 {
			pg, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("no page needing ≥16 retry steps at (2K, 12mo)")
	}
	n := m.RetrySteps(pg, c)
	eFinal := m.StepErrors(pg, c, nand.CSB, n, nand.Reduction{})
	e1 := m.StepErrors(pg, c, nand.CSB, n-1, nand.Reduction{})
	e2 := m.StepErrors(pg, c, nand.CSB, n-2, nand.Reduction{})
	e3 := m.StepErrors(pg, c, nand.CSB, n-3, nand.Reduction{})
	if eFinal > m.Capability() {
		t.Errorf("final step errors %d exceed capability", eFinal)
	}
	if e1 <= m.Capability() {
		t.Errorf("step N-1 errors %d should exceed capability", e1)
	}
	if !(e3 > e2 && e2 > e1) {
		t.Errorf("errors should decrease toward the final step: %d, %d, %d", e3, e2, e1)
	}
	if float64(e1)/float64(eFinal) < 3 {
		t.Errorf("final-step collapse too weak: %d -> %d", e1, eFinal)
	}
}

func TestWallErrorsShape(t *testing.T) {
	m := defaultModel()
	if m.WallErrors(0, nand.CSB) != 0 || m.WallErrors(-5, nand.CSB) != 0 {
		t.Error("non-positive residual should give zero wall errors")
	}
	// Monotone and capped.
	prev := 0
	for mv := 10.0; mv < 5000; mv *= 1.5 {
		e := m.WallErrors(mv, nand.CSB)
		if e < prev {
			t.Fatalf("wall errors not monotone at %v mV", mv)
		}
		prev = e
	}
	if prev != m.Params().WallCap {
		t.Errorf("wall should saturate at cap %d, got %d", m.Params().WallCap, prev)
	}
	// CSB sees 1.5× the errors of LSB at the same residual.
	csb := m.WallErrors(120, nand.CSB)
	lsb := m.WallErrors(120, nand.LSB)
	ratio := float64(csb) / float64(lsb)
	if ratio < 1.4 || ratio > 1.6 {
		t.Errorf("CSB/LSB wall ratio = %.2f, want 1.5", ratio)
	}
}

// --- Read (full retry loop) ----------------------------------------------

func TestReadSucceedsUnderDefaultTiming(t *testing.T) {
	m := defaultModel()
	for _, c := range []Condition{cond(0, 0), cond(0, 12), cond(2000, 12),
		{PEC: 2000, RetentionMonths: 12, TempC: 30}} {
		for _, pg := range samplePages(500) {
			res := m.Read(pg, c, nand.CSB, nand.Reduction{})
			if res.Failed {
				t.Fatalf("read failed at %v for %v with default timing", c, pg)
			}
			if res.FinalErrors > m.Capability() {
				t.Fatalf("successful read reports %d errors > capability", res.FinalErrors)
			}
		}
	}
}

func TestReadFailsUnderRecklessReduction(t *testing.T) {
	// An over-aggressive reduction must make the retry operation exhaust
	// the ladder (the worst case AR² §6.2 guards against with the RPT).
	m := defaultModel()
	c := cond(2000, 12)
	r := nand.Reduction{Pre: nand.LevelFraction(9), Disch: nand.LevelFraction(5)}
	failures := 0
	pages := samplePages(300)
	for _, pg := range pages {
		res := m.Read(pg, c, nand.CSB, r)
		if res.Failed {
			failures++
			if res.RetrySteps != m.Params().MaxLadderSteps {
				t.Fatalf("failed read should exhaust the ladder, got %d steps", res.RetrySteps)
			}
		}
	}
	if failures == 0 {
		t.Error("expected at least some read failures under a reckless reduction")
	}
}

func TestReadRetryStepCountUnaffectedBySafeReduction(t *testing.T) {
	// §6.2: with a correctly profiled tPRE, the reduction does not change
	// the number of retry steps — previous steps fail anyway, and the final
	// step still succeeds.
	m := defaultModel()
	c := cond(2000, 12)
	safe := nand.Reduction{Pre: nand.LevelFraction(6)} // the RPT's 40 % choice
	for _, pg := range samplePages(1000) {
		base := m.Read(pg, c, nand.CSB, nand.Reduction{})
		reduced := m.Read(pg, c, nand.CSB, safe)
		if reduced.Failed {
			t.Fatalf("safe reduction caused a read failure on %v", pg)
		}
		if base.RetrySteps != reduced.RetrySteps {
			t.Fatalf("safe reduction changed N_RR on %v: %d vs %d",
				pg, base.RetrySteps, reduced.RetrySteps)
		}
	}
}

func TestConditionString(t *testing.T) {
	c := Condition{PEC: 2000, RetentionMonths: 12, TempC: 30}
	if got := c.String(); got != "(2K P/E, 12mo, 30°C)" {
		t.Errorf("String() = %q", got)
	}
}
