// Package nand models the organization and timing of a 3D TLC NAND flash
// chip as described in §2 of the paper: the chip/die/plane/block/page
// hierarchy, page-type (LSB/CSB/MSB) striping across wordlines, the
// three-phase read mechanism timing (precharge / evaluation / discharge,
// Equation 1), and the SET FEATURE register the two proposed techniques use
// for dynamic read-timing adjustment.
//
// The package is purely structural: the electrical error behaviour lives in
// internal/vth and the dynamic die/channel occupancy lives in internal/ssd.
package nand

import (
	"fmt"

	"readretry/internal/sim"
)

// PageType identifies which bit of a TLC wordline a page stores. The paper's
// chips sense LSB pages with 2 read levels, CSB with 3, and MSB with 2
// (footnote 14), which makes tR page-type dependent.
type PageType int

// TLC page types, in wordline storage order.
const (
	LSB PageType = iota // least-significant bit page
	CSB                 // center-significant bit page
	MSB                 // most-significant bit page
	numPageTypes
)

// String returns the conventional page-type abbreviation.
func (pt PageType) String() string {
	switch pt {
	case LSB:
		return "LSB"
	case CSB:
		return "CSB"
	case MSB:
		return "MSB"
	default:
		return fmt.Sprintf("PageType(%d)", int(pt))
	}
}

// NSense returns the number of sensing operations needed to read a page of
// this type: ⟨2, 3, 2⟩ for ⟨LSB, CSB, MSB⟩ in TLC NAND. Non-TLC devices go
// through CellKind.NSense instead.
func (pt PageType) NSense() int { return TLC.NSense(pt) }

// Geometry describes the physical organization of one NAND flash chip
// (Figure 1): dies that operate independently, planes sharing a row decoder,
// blocks (the erase unit), and pages (the read/program unit).
type Geometry struct {
	Dies           int // independent dies per chip
	PlanesPerDie   int
	BlocksPerPlane int
	PagesPerBlock  int
	PageSize       int // bytes of user data per page
	CellBits       int // bits per cell: 3 for TLC
}

// DefaultGeometry returns the per-chip geometry of the paper's simulated SSD
// (§7.1): 2 planes per die, 1,888 blocks per plane, 576 16-KiB pages per
// block, TLC cells. Dies is 1; the SSD composes chips into channels.
func DefaultGeometry() Geometry {
	return Geometry{
		Dies:           1,
		PlanesPerDie:   2,
		BlocksPerPlane: 1888,
		PagesPerBlock:  576,
		PageSize:       16 * 1024,
		CellBits:       3,
	}
}

// Validate reports whether every field is positive, CellBits names a
// supported cell kind, and the page count is a multiple of the cell bits
// (each wordline stores CellBits pages).
func (g Geometry) Validate() error {
	switch {
	case g.Dies < 1, g.PlanesPerDie < 1, g.BlocksPerPlane < 1,
		g.PagesPerBlock < 1, g.PageSize < 1, g.CellBits < 1:
		return fmt.Errorf("nand: non-positive geometry field: %+v", g)
	case !CellKind(g.CellBits).Valid():
		return fmt.Errorf("nand: unsupported CellBits %d (supported: %d..%d bits per cell)",
			g.CellBits, int(SLC), int(QLC))
	case g.PagesPerBlock%g.CellBits != 0:
		return fmt.Errorf("nand: PagesPerBlock (%d) not a multiple of CellBits (%d)",
			g.PagesPerBlock, g.CellBits)
	}
	return nil
}

// BlocksPerDie returns the number of blocks in one die.
func (g Geometry) BlocksPerDie() int { return g.PlanesPerDie * g.BlocksPerPlane }

// PagesPerDie returns the number of pages in one die.
func (g Geometry) PagesPerDie() int { return g.BlocksPerDie() * g.PagesPerBlock }

// PageType maps a page index within its block to its page kind. Pages are
// striped across wordlines in page-kind order — LSB, CSB, MSB for TLC —
// so page p lives on wordline p/CellBits as page kind p%CellBits.
func (g Geometry) PageType(pageInBlock int) PageType {
	return PageType(pageInBlock % g.CellBits)
}

// Address identifies one physical page on a chip.
type Address struct {
	Die   int
	Plane int
	Block int // block index within the plane
	Page  int // page index within the block
}

// Valid reports whether the address is in range for the geometry.
func (a Address) Valid(g Geometry) bool {
	return a.Die >= 0 && a.Die < g.Dies &&
		a.Plane >= 0 && a.Plane < g.PlanesPerDie &&
		a.Block >= 0 && a.Block < g.BlocksPerPlane &&
		a.Page >= 0 && a.Page < g.PagesPerBlock
}

// String formats the address as die/plane/block/page.
func (a Address) String() string {
	return fmt.Sprintf("d%d/p%d/b%d/pg%d", a.Die, a.Plane, a.Block, a.Page)
}

// BlockID identifies one physical block on a chip.
type BlockID struct {
	Die   int
	Plane int
	Block int
}

// BlockOf returns the block containing the addressed page.
func (a Address) BlockOf() BlockID { return BlockID{Die: a.Die, Plane: a.Plane, Block: a.Block} }

// Linear returns a dense index for the block, unique within the chip.
func (b BlockID) Linear(g Geometry) int {
	return (b.Die*g.PlanesPerDie+b.Plane)*g.BlocksPerPlane + b.Block
}

// Timing holds the chip timing parameters of Table 1. The three read-phase
// parameters compose into tR via Equation 1:
//
//	tR = N_SENSE × (tPRE + tEVAL + tDISCH)
type Timing struct {
	TPre   sim.Time // precharge phase per sensing
	TEval  sim.Time // evaluation phase per sensing
	TDisch sim.Time // discharge phase per sensing
	TProg  sim.Time // page program
	TBers  sim.Time // block erase
	TSet   sim.Time // SET FEATURE
	TRst   sim.Time // RESET of an in-flight read
	TDMA   sim.Time // page transfer chip → controller (16 KiB @ 1 Gb/s)
	TECC   sim.Time // controller ECC decode of one page (§7.1)
}

// DefaultTiming returns Table 1's values, measured from the paper's 160
// characterized chips, plus §7.1's tECC.
func DefaultTiming() Timing {
	return Timing{
		TPre:   24 * sim.Microsecond,
		TEval:  5 * sim.Microsecond,
		TDisch: 10 * sim.Microsecond,
		TProg:  700 * sim.Microsecond,
		TBers:  5 * sim.Millisecond,
		TSet:   1 * sim.Microsecond,
		TRst:   5 * sim.Microsecond,
		TDMA:   16 * sim.Microsecond,
		TECC:   20 * sim.Microsecond,
	}
}

// Reduction expresses fractional reductions of the three read-timing
// parameters, as programmed through SET FEATURE. Fractions are in [0, 1);
// 0 means the manufacturer default.
type Reduction struct {
	Pre, Eval, Disch float64
}

// SensePeriod returns the duration of one sensing operation (precharge +
// evaluation + discharge) under the reduction.
func (t Timing) SensePeriod(r Reduction) sim.Time {
	pre := scale(t.TPre, 1-r.Pre)
	eval := scale(t.TEval, 1-r.Eval)
	disch := scale(t.TDisch, 1-r.Disch)
	return pre + eval + disch
}

func scale(d sim.Time, f float64) sim.Time {
	if f <= 0 {
		return 0
	}
	return sim.Time(float64(d)*f + 0.5)
}

// TR returns the page-sensing latency for a page type under the reduction
// (Equation 1).
func (t Timing) TR(pt PageType, r Reduction) sim.Time {
	return sim.Time(pt.NSense()) * t.SensePeriod(r)
}

// AvgTR returns tR averaged over the three page types with no reduction —
// the "tR (avg.)" row of Table 1 (≈90 µs with default parameters).
func (t Timing) AvgTR() sim.Time {
	total := sim.Time(0)
	for pt := LSB; pt < numPageTypes; pt++ {
		total += t.TR(pt, Reduction{})
	}
	return total / sim.Time(numPageTypes)
}

// TRFraction returns the fraction of default tR removed by the reduction
// (independent of page type, since all sensings scale together).
func (t Timing) TRFraction(r Reduction) float64 {
	full := t.SensePeriod(Reduction{})
	red := t.SensePeriod(r)
	return 1 - float64(red)/float64(full)
}

// FeatureStep is the granularity of the read-timing SET FEATURE register:
// each register step removes 1/15 of a parameter's default value. The
// paper's observed reductions (40 %, 47 %, 54 % for tPRE; 7 %…40 % for
// tDISCH) are all multiples of this step.
const FeatureStep = 1.0 / 15

// MaxFeatureLevel is the largest reduction level the register accepts
// (9 steps = 60 %, the upper end of the paper's characterization sweeps).
const MaxFeatureLevel = 9

// LevelFraction converts a register level to its reduction fraction,
// clamping to the register's range.
func LevelFraction(level int) float64 {
	if level < 0 {
		level = 0
	}
	if level > MaxFeatureLevel {
		level = MaxFeatureLevel
	}
	return float64(level) * FeatureStep
}

// FractionLevel converts a desired reduction fraction to the largest
// register level that does not exceed it.
func FractionLevel(frac float64) int {
	if frac <= 0 {
		return 0
	}
	level := int(frac/FeatureStep + 1e-9)
	if level > MaxFeatureLevel {
		level = MaxFeatureLevel
	}
	return level
}

// FeatureRegister models the chip's read-timing feature (programmed with
// SET FEATURE, read back with GET FEATURE). Levels count reduction steps
// for each read-phase parameter.
type FeatureRegister struct {
	PreLevel, EvalLevel, DischLevel int
}

// Reduction returns the fractional reductions the register encodes.
func (f FeatureRegister) Reduction() Reduction {
	return Reduction{
		Pre:   LevelFraction(f.PreLevel),
		Eval:  LevelFraction(f.EvalLevel),
		Disch: LevelFraction(f.DischLevel),
	}
}

// Set stores the levels, clamping each to the register range.
func (f *FeatureRegister) Set(pre, eval, disch int) {
	clampLevel := func(l int) int {
		if l < 0 {
			return 0
		}
		if l > MaxFeatureLevel {
			return MaxFeatureLevel
		}
		return l
	}
	f.PreLevel = clampLevel(pre)
	f.EvalLevel = clampLevel(eval)
	f.DischLevel = clampLevel(disch)
}
