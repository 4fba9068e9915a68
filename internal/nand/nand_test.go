package nand

import (
	"math"
	"testing"
	"testing/quick"

	"readretry/internal/sim"
)

func TestPageTypeNSense(t *testing.T) {
	// Footnote 14: N_SENSE = ⟨2, 3, 2⟩ for ⟨LSB, CSB, MSB⟩.
	if LSB.NSense() != 2 || CSB.NSense() != 3 || MSB.NSense() != 2 {
		t.Errorf("NSense = %d/%d/%d, want 2/3/2",
			LSB.NSense(), CSB.NSense(), MSB.NSense())
	}
}

func TestPageTypeReadLevelsPartitionAllSeven(t *testing.T) {
	// The 7 read levels of TLC must be covered exactly once across the
	// three page types (Gray coding property).
	seen := map[int]PageType{}
	for _, pt := range []PageType{LSB, CSB, MSB} {
		levels := TLC.ReadLevels(pt)
		if len(levels) != pt.NSense() {
			t.Errorf("%v: %d read levels but NSense=%d", pt, len(levels), pt.NSense())
		}
		for _, l := range levels {
			if prev, dup := seen[l]; dup {
				t.Errorf("read level %d claimed by both %v and %v", l, prev, pt)
			}
			seen[l] = pt
		}
	}
	for l := 0; l < 7; l++ {
		if _, ok := seen[l]; !ok {
			t.Errorf("read level %d not covered by any page type", l)
		}
	}
}

func TestPageTypeString(t *testing.T) {
	if LSB.String() != "LSB" || CSB.String() != "CSB" || MSB.String() != "MSB" {
		t.Error("PageType String wrong")
	}
	if PageType(9).String() != "PageType(9)" {
		t.Error("unknown PageType String wrong")
	}
}

func TestDefaultGeometryMatchesPaper(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.PlanesPerDie != 2 || g.BlocksPerPlane != 1888 || g.PagesPerBlock != 576 {
		t.Errorf("geometry %+v does not match §7.1", g)
	}
	if g.PageSize != 16*1024 {
		t.Errorf("page size %d, want 16 KiB", g.PageSize)
	}
	// One die: 2 planes × 1888 blocks × 576 pages.
	wantPages := 2 * 1888 * 576
	if g.PagesPerDie() != wantPages {
		t.Errorf("PagesPerDie = %d, want %d", g.PagesPerDie(), wantPages)
	}
}

func TestGeometryValidateErrors(t *testing.T) {
	bad := DefaultGeometry()
	bad.PagesPerBlock = 577 // not a multiple of 3
	if bad.Validate() == nil {
		t.Error("expected error for non-multiple page count")
	}
	bad = DefaultGeometry()
	bad.Dies = 0
	if bad.Validate() == nil {
		t.Error("expected error for zero dies")
	}
}

func TestPageTypeMapping(t *testing.T) {
	g := DefaultGeometry()
	for p := 0; p < 9; p++ {
		want := PageType(p % 3)
		if got := g.PageType(p); got != want {
			t.Errorf("PageType(%d) = %v, want %v", p, got, want)
		}
	}
}

func TestAddressValidRejectsOutOfRange(t *testing.T) {
	g := DefaultGeometry()
	bad := []Address{
		{Die: -1}, {Die: g.Dies},
		{Plane: g.PlanesPerDie}, {Block: g.BlocksPerPlane},
		{Page: g.PagesPerBlock}, {Page: -1},
	}
	for _, a := range bad {
		if a.Valid(g) {
			t.Errorf("%v should be invalid", a)
		}
	}
}

func TestBlockIDLinear(t *testing.T) {
	g := DefaultGeometry()
	a := Address{Die: 0, Plane: 1, Block: 7, Page: 3}
	b := a.BlockOf()
	if b != (BlockID{Die: 0, Plane: 1, Block: 7}) {
		t.Errorf("BlockOf = %+v", b)
	}
	if b.Linear(g) != 1*1888+7 {
		t.Errorf("BlockID.Linear = %d", b.Linear(g))
	}
}

func TestDefaultTimingTable1(t *testing.T) {
	tm := DefaultTiming()
	if tm.TPre != 24*sim.Microsecond || tm.TEval != 5*sim.Microsecond || tm.TDisch != 10*sim.Microsecond {
		t.Errorf("read-phase timing %+v does not match Table 1", tm)
	}
	if tm.TProg != 700*sim.Microsecond || tm.TBers != 5*sim.Millisecond {
		t.Error("program/erase timing does not match Table 1")
	}
	if tm.TSet != sim.Microsecond || tm.TRst != 5*sim.Microsecond || tm.TDMA != 16*sim.Microsecond {
		t.Error("tSET/tRST/tDMA do not match Table 1")
	}
	if tm.TECC != 20*sim.Microsecond {
		t.Errorf("tECC = %v, want §7.1's 20us", tm.TECC)
	}
}

func TestTRPerPageType(t *testing.T) {
	tm := DefaultTiming()
	// One sensing = 24+5+10 = 39 µs.
	if got := tm.TR(LSB, Reduction{}); got != 78*sim.Microsecond {
		t.Errorf("LSB tR = %v, want 78us", got)
	}
	if got := tm.TR(CSB, Reduction{}); got != 117*sim.Microsecond {
		t.Errorf("CSB tR = %v, want 117us", got)
	}
	if got := tm.TR(MSB, Reduction{}); got != 78*sim.Microsecond {
		t.Errorf("MSB tR = %v, want 78us", got)
	}
}

func TestAvgTRNearTable1(t *testing.T) {
	// Table 1: tR (avg.) = 90 µs. (2+3+2)/3 sensings × 39 µs = 91 µs.
	avg := DefaultTiming().AvgTR()
	if avg < 88*sim.Microsecond || avg > 93*sim.Microsecond {
		t.Errorf("AvgTR = %v, want ≈ 90 µs", avg)
	}
}

func TestReductionScalesTR(t *testing.T) {
	tm := DefaultTiming()
	// 40 % tPRE reduction: sensing = 24×0.6 + 5 + 10 = 29.4 µs → ≈25 % tR cut,
	// the paper's headline AR² number (§5.2.1).
	r := Reduction{Pre: 0.40}
	frac := tm.TRFraction(r)
	if frac < 0.24 || frac > 0.26 {
		t.Errorf("tR reduction from 40%% tPRE = %.3f, want ≈ 0.25", frac)
	}
	// tEVAL is 1/8 of tR (§5.2.1): a full tEVAL cut would save 12.8 %.
	frac = tm.TRFraction(Reduction{Eval: 1})
	if frac < 0.12 || frac > 0.14 {
		t.Errorf("tEVAL share of tR = %.3f, want ≈ 1/8", frac)
	}
	// tDISCH is ≈25 % of tR (§5.2.2).
	frac = tm.TRFraction(Reduction{Disch: 1})
	if frac < 0.24 || frac > 0.27 {
		t.Errorf("tDISCH share of tR = %.3f, want ≈ 0.25", frac)
	}
	// One register step of tDISCH (≈7 %) buys ≈1.75 % of tR (§5.2.2).
	frac = tm.TRFraction(Reduction{Disch: LevelFraction(1)})
	if frac < 0.016 || frac > 0.019 {
		t.Errorf("tR reduction from 7%% tDISCH = %.4f, want ≈ 0.0175", frac)
	}
}

func TestTRFractionMonotoneProperty(t *testing.T) {
	tm := DefaultTiming()
	f := func(aRaw, bRaw float64) bool {
		a := clamp01(aRaw)
		b := clamp01(bRaw)
		if a > b {
			a, b = b, a
		}
		// More reduction never lengthens tR.
		return tm.TR(CSB, Reduction{Pre: b}) <= tm.TR(CSB, Reduction{Pre: a})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clamp01(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(math.Abs(x), 1)
}

func TestLevelFraction(t *testing.T) {
	if LevelFraction(0) != 0 {
		t.Error("level 0 should be 0 reduction")
	}
	if got := LevelFraction(6); got < 0.399 || got > 0.401 {
		t.Errorf("level 6 = %v, want 0.40", got)
	}
	if got := LevelFraction(8); got < 0.532 || got > 0.534 {
		t.Errorf("level 8 = %v, want ≈ 0.533 (the paper's 54%%)", got)
	}
	if LevelFraction(-3) != 0 {
		t.Error("negative level should clamp to 0")
	}
	if LevelFraction(99) != LevelFraction(MaxFeatureLevel) {
		t.Error("oversized level should clamp to max")
	}
}

func TestFractionLevelInverse(t *testing.T) {
	for l := 0; l <= MaxFeatureLevel; l++ {
		if got := FractionLevel(LevelFraction(l)); got != l {
			t.Errorf("FractionLevel(LevelFraction(%d)) = %d", l, got)
		}
	}
	// A fraction between steps rounds down (never exceeds the request).
	if got := FractionLevel(0.45); got != 6 {
		t.Errorf("FractionLevel(0.45) = %d, want 6 (40%%)", got)
	}
	if FractionLevel(-0.1) != 0 {
		t.Error("negative fraction should be level 0")
	}
	if FractionLevel(2.0) != MaxFeatureLevel {
		t.Error("huge fraction should clamp to max level")
	}
}

func TestFeatureRegister(t *testing.T) {
	var f FeatureRegister
	f.Set(7, 1, 3)
	r := f.Reduction()
	if r.Pre < 0.46 || r.Pre > 0.47 {
		t.Errorf("Pre = %v, want ≈ 0.467 (the paper's 47%%)", r.Pre)
	}
	f.Set(-1, 100, 2)
	if f.PreLevel != 0 || f.EvalLevel != MaxFeatureLevel || f.DischLevel != 2 {
		t.Errorf("clamping failed: %+v", f)
	}
}

func TestSensePeriodZeroFloor(t *testing.T) {
	tm := DefaultTiming()
	// Reduction ≥ 1 clamps a phase to zero rather than going negative.
	if got := tm.SensePeriod(Reduction{Pre: 1, Eval: 1, Disch: 1}); got != 0 {
		t.Errorf("fully-reduced sense period = %v, want 0", got)
	}
}
