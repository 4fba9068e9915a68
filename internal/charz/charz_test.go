package charz

import (
	"testing"

	"readretry/internal/nand"
	"readretry/internal/vth"
)

// lab returns a small-but-significant lab; 4000 samples keep the full test
// suite fast while leaving max-statistics stable.
func lab() *Lab { return DefaultLab(4000, 1) }

func TestFigure5Anchors(t *testing.T) {
	l := lab()

	fresh := l.RetrySteps(0, 0, 30)
	if fresh.Max != 0 {
		t.Errorf("fresh condition max N_RR = %d, want 0", fresh.Max)
	}

	threeMo := l.RetrySteps(0, 3, 30)
	if threeMo.Min <= 3 {
		t.Errorf("min N_RR at (0, 3mo) = %d, paper: every read needs > 3", threeMo.Min)
	}

	sixMo := l.RetrySteps(0, 6, 30)
	if frac := sixMo.FractionAtLeast(7); frac < 0.35 || frac > 0.75 {
		t.Errorf("P(N_RR ≥ 7) at (0, 6mo) = %.3f, paper reports 0.544", frac)
	}

	oneK := l.RetrySteps(1000, 3, 30)
	if oneK.Min < 8 {
		t.Errorf("min N_RR at (1K, 3mo) = %d, paper: every read needs ≥ 8", oneK.Min)
	}

	worst := l.RetrySteps(2000, 12, 30)
	if worst.Mean < 18.5 || worst.Mean > 21.5 {
		t.Errorf("mean N_RR at (2K, 12mo) = %.2f, paper reports 19.9", worst.Mean)
	}
}

func TestFigure5GridShape(t *testing.T) {
	l := lab()
	grid := l.Figure5([]int{0, 1000}, []float64{0, 6})
	if len(grid) != 4 {
		t.Fatalf("grid size = %d, want 4", len(grid))
	}
	// Mean retry steps grow along both axes.
	if !(grid[0].Mean <= grid[1].Mean && grid[0].Mean <= grid[2].Mean) {
		t.Errorf("means not monotone: %v", []float64{grid[0].Mean, grid[1].Mean, grid[2].Mean})
	}
	for _, h := range grid {
		total := 0
		for _, c := range h.Counts {
			total += c
		}
		if total != h.Total {
			t.Errorf("histogram total mismatch: %d vs %d", total, h.Total)
		}
	}
}

func TestHistogramProbabilities(t *testing.T) {
	l := lab()
	h := l.RetrySteps(1000, 6, 30)
	if h.FractionAtLeast(0) != 1 {
		t.Error("FractionAtLeast(0) should be 1")
	}
	if h.FractionAtLeast(len(h.Counts)) != 0 {
		t.Error("FractionAtLeast past the last count should be 0")
	}
	for n := 1; n <= len(h.Counts); n++ {
		if h.FractionAtLeast(n) > h.FractionAtLeast(n-1) {
			t.Errorf("FractionAtLeast(%d) rises above FractionAtLeast(%d)", n, n-1)
		}
	}
}

func TestFigure4bLadder(t *testing.T) {
	l := lab()
	series, err := l.RBERLadder(2000, 12, 18)
	if err != nil {
		t.Fatal(err)
	}
	if series.StepsNeeded != 18 {
		t.Fatalf("found page needing %d steps, want 18", series.StepsNeeded)
	}
	if series.PEC != 2000 || series.Months != 12 {
		t.Errorf("series sampled at (%d, %gmo), want (2000, 12mo)", series.PEC, series.Months)
	}
	if len(series.ErrorsPerStep) != 19 {
		t.Fatalf("series has %d entries, want 19", len(series.ErrorsPerStep))
	}
	last := series.ErrorsPerStep[18]
	if last > 72 {
		t.Errorf("final-step errors %d exceed capability", last)
	}
	// The paper's key observation: RBER decreases gradually over the last
	// steps and collapses at the final one.
	if !(series.ErrorsPerStep[15] > series.ErrorsPerStep[16] &&
		series.ErrorsPerStep[16] > series.ErrorsPerStep[17]) {
		t.Errorf("errors not decreasing near the end: %v", series.ErrorsPerStep[15:])
	}
	if series.ErrorsPerStep[17] <= 72 {
		t.Errorf("step N-1 errors %d should exceed capability", series.ErrorsPerStep[17])
	}
}

func TestFigure4bNotFound(t *testing.T) {
	l := lab()
	if _, err := l.RBERLadder(0, 0, 16); err == nil {
		t.Error("fresh condition cannot yield a 16-step page")
	}
}

func TestFigure7Margins(t *testing.T) {
	l := lab()
	points := l.FinalStepMargin([]int{0, 2000}, []float64{3, 12}, []float64{85, 30})
	if len(points) != 8 {
		t.Fatalf("got %d points, want 8", len(points))
	}
	byKey := map[[3]float64]MarginPoint{}
	for _, p := range points {
		byKey[[3]float64{float64(p.PEC), p.Months, p.TempC}] = p
	}
	// Anchors (±4): M_ERR(0,3)@85 = 15, M_ERR(2K,12)@85 = 35, @30 = 40.
	if p := byKey[[3]float64{0, 3, 85}]; p.MErr < 11 || p.MErr > 19 {
		t.Errorf("M_ERR(0,3)@85 = %d, paper reports 15", p.MErr)
	}
	if p := byKey[[3]float64{2000, 12, 85}]; p.MErr < 31 || p.MErr > 39 {
		t.Errorf("M_ERR(2K,12)@85 = %d, paper reports 35", p.MErr)
	}
	worst := byKey[[3]float64{2000, 12, 30}]
	if worst.MErr < 36 || worst.MErr > 44 {
		t.Errorf("M_ERR(2K,12)@30 = %d, paper reports 40", worst.MErr)
	}
	// §5.1: even the worst case leaves ≥ 40 % of the capability.
	if float64(worst.Margin)/72 < 0.38 {
		t.Errorf("worst-case margin = %d bits (%.0f%%), paper reports 44.4%%",
			worst.Margin, float64(worst.Margin)/72*100)
	}
}

func TestFigure8IndividualSweeps(t *testing.T) {
	l := lab()
	// tPRE sweep at the worst case: safe through 47 %, unsafe at 54 %.
	reds := []nand.Reduction{
		{Pre: nand.LevelFraction(6)},
		{Pre: nand.LevelFraction(7)},
		{Pre: nand.LevelFraction(8)},
	}
	pts := l.TimingSweep(2000, 12, 85, reds)
	if pts[1].MErr > 72 {
		t.Errorf("47%% tPRE at (2K,12): M_ERR = %d, should stay within capability", pts[1].MErr)
	}
	if pts[2].MErr <= 72 {
		t.Errorf("54%% tPRE at (2K,12): M_ERR = %d, should exceed capability", pts[2].MErr)
	}
	// ΔM_ERR grows monotonically with the reduction.
	if !(pts[0].DeltaErr < pts[1].DeltaErr && pts[1].DeltaErr < pts[2].DeltaErr) {
		t.Errorf("ΔM_ERR not monotone: %d, %d, %d", pts[0].DeltaErr, pts[1].DeltaErr, pts[2].DeltaErr)
	}
	// tEVAL: 20 % costs ≈30 errors even fresh (§5.2.1).
	evalPts := l.TimingSweep(0, 0, 85, []nand.Reduction{{Eval: 0.20}})
	if evalPts[0].DeltaErr < 25 || evalPts[0].DeltaErr > 35 {
		t.Errorf("fresh 20%% tEVAL ΔM_ERR = %d, paper reports ≈30", evalPts[0].DeltaErr)
	}
}

func TestFigure9CombinedSweep(t *testing.T) {
	l := lab()
	pre := l.TimingSweep(1000, 0, 85, []nand.Reduction{{Pre: nand.LevelFraction(8)}})[0]
	disch := l.TimingSweep(1000, 0, 85, []nand.Reduction{{Disch: nand.LevelFraction(3)}})[0]
	both := l.TimingSweep(1000, 0, 85, []nand.Reduction{{
		Pre: nand.LevelFraction(8), Disch: nand.LevelFraction(3),
	}})[0]
	if both.DeltaErr <= pre.DeltaErr+disch.DeltaErr {
		t.Errorf("combined ΔM_ERR %d not super-additive (%d + %d)",
			both.DeltaErr, pre.DeltaErr, disch.DeltaErr)
	}
	if both.MErr <= 72 {
		t.Errorf("⟨54%%, 20%%⟩ at (1K,0): M_ERR = %d, paper: far beyond capability", both.MErr)
	}
}

func TestFigure10TemperatureSweep(t *testing.T) {
	l := lab()
	pts := l.TemperatureSweep(2000, 12, []float64{55, 30}, []int{6})
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	at55, at30 := pts[0], pts[1]
	if at30.DeltaErr < 4 || at30.DeltaErr > 10 {
		t.Errorf("30°C adds %d errors over 85°C, paper reports ≤7", at30.DeltaErr)
	}
	if at55.DeltaErr <= 0 || at55.DeltaErr >= at30.DeltaErr {
		t.Errorf("55°C delta (%d) should sit between 0 and the 30°C delta (%d)",
			at55.DeltaErr, at30.DeltaErr)
	}
}

func TestFigure11Range(t *testing.T) {
	l := lab()
	pts := l.MinSafeTPre([]int{0, 1000, 2000}, []float64{0, 3, 6, 9, 12}, 14)
	if len(pts) != 15 {
		t.Fatalf("got %d points", len(pts))
	}
	min, max := 1.0, 0.0
	for _, p := range pts {
		if p.Reduction < min {
			min = p.Reduction
		}
		if p.Reduction > max {
			max = p.Reduction
		}
	}
	// Figure 11: min 40 %, max 54 %.
	if min < 0.39 || min > 0.41 {
		t.Errorf("min reduction = %.3f, paper reports 0.40", min)
	}
	if max < 0.52 || max > 0.55 {
		t.Errorf("max reduction = %.3f, paper reports 0.54", max)
	}
}

func TestLabDeterminism(t *testing.T) {
	a := DefaultLab(500, 7).RetrySteps(1000, 6, 30)
	b := DefaultLab(500, 7).RetrySteps(1000, 6, 30)
	if a.Mean != b.Mean || a.Max != b.Max || a.Total != b.Total {
		t.Error("identical labs should produce identical measurements")
	}
}

func TestColdReadsNeverCheaperThanHot(t *testing.T) {
	// Operating temperature does not move V_OPT in the model (it adds
	// errors instead), so retry-step distributions are temperature-stable;
	// M_ERR is not.
	l := lab()
	cold := l.RetrySteps(1000, 6, 30)
	hot := l.RetrySteps(1000, 6, 85)
	// Each measurement draws its own page sample, so allow sampling noise.
	if diff := cold.Mean - hot.Mean; diff > 0.3 || diff < -0.3 {
		t.Errorf("retry steps should be temperature-independent: %.2f vs %.2f",
			cold.Mean, hot.Mean)
	}
	coldM := l.FinalStepMargin([]int{1000}, []float64{6}, []float64{30})[0]
	hotM := l.FinalStepMargin([]int{1000}, []float64{6}, []float64{85})[0]
	if coldM.MErr <= hotM.MErr {
		t.Errorf("cold reads should see more errors: %d vs %d", coldM.MErr, hotM.MErr)
	}
}

func TestMarginPlusErrorsEqualsCapability(t *testing.T) {
	l := lab()
	for _, p := range l.FinalStepMargin([]int{0, 2000}, []float64{0, 12}, []float64{30}) {
		if p.MErr+p.Margin != 72 {
			t.Errorf("M_ERR %d + margin %d != capability 72", p.MErr, p.Margin)
		}
	}
}

func TestLabMeasurementsTrackModelClosedForms(t *testing.T) {
	// The lab measures by sampling reads; its max statistics must approach
	// (and never exceed) the model's closed-form worst case.
	l := lab()
	model := l.Model()
	for _, tc := range []struct {
		pec    int
		months float64
		temp   float64
	}{{0, 3, 85}, {2000, 12, 30}} {
		cond := vth.Condition{PEC: tc.pec, RetentionMonths: tc.months, TempC: tc.temp}
		modelMax := model.MaxFloorErrors(cond, nand.CSB)
		measured := l.FinalStepMargin([]int{tc.pec}, []float64{tc.months}, []float64{tc.temp})[0].MErr
		if measured > modelMax {
			t.Errorf("%v: measured max %d exceeds model max %d", cond, measured, modelMax)
		}
		if measured < modelMax-4 {
			t.Errorf("%v: measured max %d too far below model max %d for 4000 samples",
				cond, measured, modelMax)
		}
	}
}

func TestSmallSampleLabStillSane(t *testing.T) {
	l := DefaultLab(50, 3)
	h := l.RetrySteps(2000, 12, 30)
	if h.Total != 50 {
		t.Errorf("sampled %d reads, want 50", h.Total)
	}
	if h.Mean < 15 || h.Mean > 25 {
		t.Errorf("small-sample mean %.1f drifted badly", h.Mean)
	}
}

func TestFeatureRegisterRestoredBetweenMeasurements(t *testing.T) {
	l := lab()
	l.TimingSweep(1000, 0, 85, []nand.Reduction{{Pre: 0.4}})
	for i, c := range l.fleet.Chips {
		if c.Features() != (nand.FeatureRegister{}) {
			t.Fatalf("chip %d left with non-default features", i)
		}
	}
}
