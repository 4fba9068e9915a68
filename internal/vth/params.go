// Package vth models the threshold-voltage (V_TH) error behaviour of 3D TLC
// NAND flash memory: how raw bit errors depend on the distance between the
// applied read-reference voltages and the optimal ones, how P/E cycling,
// retention age, and temperature move that distance, and how reducing the
// read-timing parameters (tPRE / tEVAL / tDISCH) adds errors.
//
// The package substitutes for the paper's 160 real chips. It is calibrated so
// that every quantitative anchor the paper reports (Figures 4b, 5, 7, 8, 9,
// 10, 11 and the prose around them) is reproduced; the calibration anchors
// are asserted by this package's tests and listed in DESIGN.md §4.
//
// # Model structure
//
// Retention loss and wear displace the optimal read voltages (V_OPT) from the
// manufacturer defaults. We measure that displacement in units of the
// read-retry ladder step δ: the "drift" D(PEC, t_RET) is the expected number
// of ladder steps between the default V_REF and V_OPT. A read-retry operation
// walks the ladder one step at a time and succeeds when it comes within half
// a step of V_OPT — at which point the manufacturer table's final entry lands
// substantially close to V_OPT (§2.4 of the paper: "manufacturers provide
// sets of V_REF values … which guarantee the V_REF values in the final retry
// step to be substantially close to V_OPT"). Consequently:
//
//   - the number of retry steps N_RR ≈ round(D) plus per-page variation,
//   - errors in failing steps follow a steep "wall" curve in the residual
//     voltage distance (Figure 4b's shape), and
//   - errors in the final step collapse to a condition-dependent "floor"
//     given by the irreducible overlap of the widened V_TH distributions
//     (Figure 7's M_ERR).
//
// Reduced read-timing parameters add errors on top of every step
// (Figures 8–10); those penalties are exponential in the reduction fraction,
// matching the characterization's rapid blow-up past the safe points.
package vth

import (
	"fmt"

	"readretry/internal/nand"
)

// Condition is an operating condition: the triple the paper sweeps in every
// characterization experiment.
type Condition struct {
	PEC             int     // program/erase cycles endured by the block
	RetentionMonths float64 // effective retention age at 30 °C (JEDEC)
	TempC           float64 // operating (read-time) temperature
}

// String formats the condition like the paper's (PEC, t_RET) pairs.
func (c Condition) String() string {
	return fmt.Sprintf("(%dK P/E, %gmo, %g°C)", c.PEC/1000, c.RetentionMonths, c.TempC)
}

// kiloPEC returns the P/E-cycle count in thousands, the unit the calibrated
// polynomials use.
func (c Condition) kiloPEC() float64 { return float64(c.PEC) / 1000 }

// Params holds every calibrated constant of the error model. DefaultParams
// reproduces the paper's 160-chip population; tests pin each constant's
// observable consequence to a number the paper reports.
type Params struct {
	// --- voltage-space geometry -----------------------------------------

	// CellBits is the bits per cell of the modeled device (nand.CellKind):
	// 3 for the paper's TLC chips. 0 means TLC for compatibility with
	// configs predating the device-geometry abstraction. Kinds other than
	// TLC scale the V_TH geometry by the read-offset spacing ratio
	// (ReadOffsets / 7): drift polynomials steepen and the state
	// separation shrinks by that ratio, so the same calibrated constants
	// describe a device with more, tighter levels.
	CellBits int
	// LadderStepMV is δ, the coarse spacing of the manufacturer read-retry
	// ladder in millivolts.
	LadderStepMV float64
	// MaxLadderSteps is the number of retry entries the manufacturer table
	// provides; a page that cannot be read within this many steps fails
	// (paper footnote 13).
	MaxLadderSteps int

	// --- V_OPT drift (determines N_RR; calibrated to Figure 5) ----------

	// WearStepsPerKPEC is the drift, in ladder steps, caused per 1K P/E
	// cycles at zero retention age.
	WearStepsPerKPEC float64
	// RetStepsBase is the drift in ladder steps after the reference
	// retention age (3 months) on a fresh block.
	RetStepsBase float64
	// RetStepsPerKPEC is the additional retention-drift coefficient per
	// (1K P/E)^RetWearExp.
	RetStepsPerKPEC float64
	// RetWearExp is the exponent on kilocycles inside the retention term.
	RetWearExp float64
	// RetTimeExp is the exponent on (t_RET / 3 months) in the drift.
	RetTimeExp float64

	// --- per-page process variation --------------------------------------

	// BlockFactorSpread is the half-width of the per-block multiplicative
	// drift variation (e.g. 0.08 → factors in [0.92, 1.08]).
	BlockFactorSpread float64
	// PageFactorSpread is the per-page analogue within a block.
	PageFactorSpread float64
	// DriftJitterSteps is the standard deviation of additive per-page
	// drift noise, in ladder steps.
	DriftJitterSteps float64

	// --- final-step error floor (Figure 7) -------------------------------

	// FreshSeparation is H/σ for a fresh block: the half-gap between
	// adjacent V_TH states divided by the state standard deviation.
	FreshSeparation float64
	// WidenPerKPEC is the fractional σ widening per 1K P/E cycles.
	WidenPerKPEC float64
	// WidenRetention is the fractional σ widening at the reference
	// retention age (3 months).
	WidenRetention float64
	// WidenRetExp is the exponent on (t_RET / 3 months) in the widening.
	WidenRetExp float64
	// CellsPerKiBPerLevel is the number of cells on each side of a read
	// level contributing error trials to a 1-KiB codeword (8192 bits /
	// 8 states = 1024 cells per V_TH state).
	CellsPerKiBPerLevel float64
	// SeverityFloor is the lower bound of the per-page severity factor
	// (the best page has SeverityFloor × the worst page's floor errors).
	SeverityFloor float64

	// --- temperature (Figures 7 and 10) ----------------------------------

	// TempAddBase and TempAddDrift give the extra errors at the coldest
	// point (30 °C vs 85 °C): base + drift-proportional part, scaled
	// linearly in (85−T)/55.
	TempAddBase  float64
	TempAddDrift float64
	// TempPenaltyGain scales timing penalties at low temperature:
	// multiplier = 1 + TempPenaltyGain × (85−T)/55.
	TempPenaltyGain float64
	// TempPenaltyCapBits bounds the temperature-induced extra penalty
	// (Figure 10 observes at most ≈7 additional errors at 30 °C under
	// every condition — the budget the RPT's safety margin allocates).
	TempPenaltyCapBits float64

	// --- read-timing reduction penalties (Figures 8–10) ------------------

	// PenaltyBase is S(0,0): the penalty scale for a fresh block.
	PenaltyBase float64
	// PenaltyPerSqrtKPEC adds to S per sqrt(kilocycles).
	PenaltyPerSqrtKPEC float64
	// PenaltyRetention adds to S at a 12-month retention age.
	PenaltyRetention float64
	// PenaltyRetExp is the exponent on (t_RET/12) in S.
	PenaltyRetExp float64
	// PreExpRate, EvalExpRate, DischExpRate are the exponential rates of
	// ΔM in the respective reduction fractions.
	PreExpRate   float64
	EvalExpRate  float64
	DischExpRate float64
	// EvalScale and DischScale multiply S for the respective parameters.
	EvalScale  float64
	DischScale float64
	// CoupleScale and CoupleExpRate govern the super-additive interaction
	// of simultaneous tPRE and tDISCH reduction (§5.2.2: the discharge
	// phase of one read degrades the precharge phase of the next).
	CoupleScale   float64
	CoupleExpRate float64

	// --- failing-step error wall (Figure 4b) ------------------------------

	// WallCoef and WallExp shape errors per 1 KiB in a failing step as
	// WallCoef × (residual mV)^WallExp for a 3-level (CSB) page.
	WallCoef float64
	WallExp  float64
	// WallCap bounds the failing-step error count (fully misread region).
	WallCap int

	// --- ECC context ------------------------------------------------------

	// CapabilityPerKiB is the ECC correction capability the retry loop
	// tests against: 72 bits per 1-KiB codeword (Micron 3D NAND flyer,
	// paper §7.1).
	CapabilityPerKiB int
}

// DefaultParams returns the calibrated model. See DESIGN.md §4 for the
// anchor list; the package tests assert each one.
func DefaultParams() Params {
	return Params{
		CellBits:       3,
		LadderStepMV:   60,
		MaxLadderSteps: 40,

		WearStepsPerKPEC: 2.7,
		RetStepsBase:     4.62,
		RetStepsPerKPEC:  1.6,
		RetWearExp:       0.8,
		RetTimeExp:       0.5,

		BlockFactorSpread: 0.08,
		PageFactorSpread:  0.04,
		DriftJitterSteps:  0.10,

		FreshSeparation:     3.0,
		WidenPerKPEC:        0.015,
		WidenRetention:      0.075,
		WidenRetExp:         0.5,
		CellsPerKiBPerLevel: 1024,
		SeverityFloor:       0.55,

		TempAddBase:        2,
		TempAddDrift:       3,
		TempPenaltyGain:    0.30,
		TempPenaltyCapBits: 7,

		PenaltyBase:        1.42,
		PenaltyPerSqrtKPEC: 0.10,
		PenaltyRetention:   0.74,
		PenaltyRetExp:      0.8,
		PreExpRate:         6,
		EvalExpRate:        14,
		DischExpRate:       9,
		EvalScale:          1.372,
		DischScale:         1.042,
		CoupleScale:        1.5,
		CoupleExpRate:      30,

		WallCoef: 26.5,
		WallExp:  0.6,
		WallCap:  2000,

		CapabilityPerKiB: 72,
	}
}

// QLC16Params returns the model recalibrated for a 16-level QLC device in
// the style of the PAPERS.md QLC references (RARO; Cai et al.): twice the
// states in the same voltage window (the spacing ratio 15/7 steepens drift
// and shrinks separation automatically via CellBits), a finer retry ladder
// with more entries to cover the faster V_OPT drift, colder-read
// sensitivity, and the stronger LDPC-class ECC QLC parts ship with.
func QLC16Params() Params {
	p := DefaultParams()
	p.CellBits = 4
	// Finer ladder for the tighter state spacing, and enough entries that
	// the worst grid condition (2K P/E, 12 months) still lands inside the
	// table after the 15/7 drift steepening.
	p.LadderStepMV = 40
	p.MaxLadderSteps = 80
	// Nominal H/σ before the 15/7 spacing shrink; effective fresh
	// separation ≈ 2.43σ — QLC's thin margins.
	p.FreshSeparation = 5.2
	p.CellsPerKiBPerLevel = 512 // 8192 bits / 16 states
	// QLC reads are more temperature-sensitive (Cai et al.).
	p.TempAddBase = 3
	p.TempAddDrift = 5
	// LDPC-class capability typical of QLC controllers.
	p.CapabilityPerKiB = 160
	return p
}

// Kind returns the cell kind the parameters describe, treating the zero
// value as TLC for compatibility.
func (p Params) Kind() nand.CellKind {
	if p.CellBits == 0 {
		return nand.TLC
	}
	return nand.CellKind(p.CellBits)
}

// Validate reports whether the parameters are physically meaningful.
func (p Params) Validate() error {
	switch {
	case p.CellBits != 0 && !nand.CellKind(p.CellBits).Valid():
		return fmt.Errorf("vth: unsupported CellBits %d", p.CellBits)
	case p.LadderStepMV <= 0:
		return fmt.Errorf("vth: LadderStepMV must be positive, got %v", p.LadderStepMV)
	case p.MaxLadderSteps < 1:
		return fmt.Errorf("vth: MaxLadderSteps must be ≥ 1, got %d", p.MaxLadderSteps)
	case p.FreshSeparation <= 0:
		return fmt.Errorf("vth: FreshSeparation must be positive, got %v", p.FreshSeparation)
	case p.CapabilityPerKiB < 1:
		return fmt.Errorf("vth: CapabilityPerKiB must be ≥ 1, got %d", p.CapabilityPerKiB)
	case p.SeverityFloor <= 0 || p.SeverityFloor > 1:
		return fmt.Errorf("vth: SeverityFloor must be in (0,1], got %v", p.SeverityFloor)
	case p.BlockFactorSpread < 0 || p.BlockFactorSpread >= 1,
		p.PageFactorSpread < 0 || p.PageFactorSpread >= 1:
		return fmt.Errorf("vth: variation spreads must be in [0,1)")
	}
	return nil
}
