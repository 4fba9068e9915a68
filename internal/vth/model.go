package vth

import (
	"math"

	"readretry/internal/mathx"
	"readretry/internal/nand"
	"readretry/internal/rng"
)

// PageID identifies a page for the purpose of process variation: two reads
// of the same page under the same condition see the same drift factors and
// severity, regardless of visit order — exactly like re-testing the same
// physical page on the bench.
type PageID struct {
	Chip  int // chip index within the characterized fleet / SSD
	Block int // linear block index within the chip
	Page  int // page index within the block
}

// Model evaluates the calibrated error model for one chip population.
// It is safe for concurrent use: all methods are pure functions of
// (PageID, Condition) given the immutable parameters and seed.
type Model struct {
	p    Params
	seed uint64
	// root is the generator state New(seed) would start from, precomputed so
	// pageRand can derive per-page variates without reconstructing it (and
	// without heap-allocating generator chains) on every read.
	root rng.State

	// kind is the cell technology the parameters describe (TLC when
	// Params.CellBits is zero).
	kind nand.CellKind
	// spacingRatio is the kind's read-offset count over TLC's 7 — the
	// level-spacing scale that steepens drift and shrinks separation for
	// devices with more states in the same voltage window. Exactly 1 for
	// TLC, so the TLC arithmetic below is untouched bit for bit.
	spacingRatio float64
	// effSep is the effective fresh H/σ after the spacing shrink — equal
	// to Params.FreshSeparation itself for TLC.
	effSep float64
	// wallRefLevels names the historical magic "/ 3" in the error wall: the
	// wall calibration (Figure 4b) tracks the kind's worst page, so the
	// per-page level count is normalized by the kind's maximum sensing
	// count — CSB's 3 for TLC.
	wallRefLevels float64
}

// NewModel builds a model over the given parameters. The seed selects the
// process-variation realization (a different "batch" of chips). NewModel
// panics if the parameters fail validation, since a malformed model would
// silently corrupt every downstream experiment.
func NewModel(p Params, seed uint64) *Model {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	kind := p.Kind()
	ratio := float64(kind.ReadOffsets()) / float64(nand.TLC.ReadOffsets())
	effSep := p.FreshSeparation
	if ratio != 1 { //lint:floateq ratio is exactly 1.0 for TLC by construction (7/7); the guard keeps TLC bit-identical to the pre-abstraction model
		effSep /= ratio
	}
	return &Model{
		p:             p,
		seed:          seed,
		root:          rng.SeedState(seed),
		kind:          kind,
		spacingRatio:  ratio,
		effSep:        effSep,
		wallRefLevels: float64(kind.MaxNSense()),
	}
}

// Params returns the model's parameters.
func (m *Model) Params() Params { return m.p }

// Kind returns the cell technology the model describes.
func (m *Model) Kind() nand.CellKind { return m.kind }

// Capability returns the ECC capability the retry loop tests against.
func (m *Model) Capability() int { return m.p.CapabilityPerKiB }

// pageRand returns the deterministic uniform [0,1) variates attached to a
// page: block-level factor, page-level factor, jitter draw, and severity.
//
// The derivation is the allocation-free value-state equivalent of the
// original generator chain
//
//	src := rng.New(m.seed).Split(uint64(pg.Chip)*0x9e3779b9 + 0x1234)
//	blockSrc := src.Split(uint64(pg.Block))
//	pageSrc := blockSrc.Split(uint64(pg.Page))   // after one blockSrc draw
//
// and produces bit-identical variates (pinned by TestPageRandMatchesSplitChain),
// so every experiment regenerates exactly as before the rewrite.
func (m *Model) pageRand(pg PageID) (blockU, pageU, jitterU, sevU float64) {
	chipState := rng.SeedState(m.root.SplitKey(uint64(pg.Chip)*0x9e3779b9 + 0x1234))
	blockState := rng.SeedState(chipState.SplitKey(uint64(pg.Block)))
	blockU = blockState.Float64()
	pageState := rng.SeedState(blockState.SplitKey(uint64(pg.Page)))
	pageU = pageState.Float64()
	jitterU = pageState.Float64()
	sevU = pageState.Float64()
	return
}

// Drift returns the population-mean V_OPT displacement, in ladder steps, for
// a condition (temperature does not move V_OPT in this model; it adds errors
// instead, as in Figure 7).
func (m *Model) Drift(c Condition) float64 {
	k := c.kiloPEC()
	t := c.RetentionMonths
	if t < 0 {
		t = 0
	}
	drift := m.p.WearStepsPerKPEC * k
	if t > 0 {
		drift += (m.p.RetStepsBase + m.p.RetStepsPerKPEC*math.Pow(k, m.p.RetWearExp)) *
			math.Pow(t/3, m.p.RetTimeExp)
	}
	// Tighter level spacing turns the same physical V_TH shift into more
	// read offsets: the drift polynomials are calibrated on TLC's 7-offset
	// window, so non-TLC kinds steepen by the spacing ratio. Guarded so the
	// TLC computation stays byte-identical to the pre-abstraction model.
	if m.spacingRatio != 1 { //lint:floateq exactly 1.0 for TLC by construction; multiplying would perturb the bit-identical TLC stream
		drift *= m.spacingRatio
	}
	return drift
}

// PageDrift returns the page's individual V_OPT displacement in ladder
// steps, including block- and page-level process variation and jitter.
func (m *Model) PageDrift(pg PageID, c Condition) float64 {
	mean := m.Drift(c)
	if mean == 0 { //lint:floateq Drift returns an exact 0 for a fresh page (no arithmetic); sentinel skips the variate draw
		return 0
	}
	blockU, pageU, jitterU, _ := m.pageRand(pg)
	blockF := 1 + m.p.BlockFactorSpread*(2*blockU-1)
	pageF := 1 + m.p.PageFactorSpread*(2*pageU-1)
	// Convert the uniform to a bounded pseudo-Gaussian jitter (sum of the
	// uniform's symmetric transform keeps the tail bounded at ±3σ, so the
	// "every read needs >N steps" minima in Figure 5 stay sharp).
	jitter := m.p.DriftJitterSteps * boundedNormal(jitterU)
	d := mean*blockF*pageF + jitter
	if d < 0 {
		return 0
	}
	return d
}

// boundedNormal maps a uniform variate to an approximately standard normal
// value clipped to ±3 (inverse-CDF via rational approximation would be
// overkill; a 12-section piecewise-linear fit of Φ⁻¹ keeps determinism and
// boundedness).
func boundedNormal(u float64) float64 {
	// Use the logit approximation Φ⁻¹(u) ≈ 0.6266 × ln(u/(1-u)) (the
	// coefficient matching the slope of Φ⁻¹ at the distribution center),
	// accurate to a few percent over (0.01, 0.99), then clip.
	if u < 1e-6 {
		u = 1e-6
	}
	if u > 1-1e-6 {
		u = 1 - 1e-6
	}
	x := 0.6266 * math.Log(u/(1-u)) // matches slope of Φ⁻¹ at the center
	return mathx.Clamp(x, -3, 3)
}

// widen returns the V_TH distribution widening factor σ(cond)/σ(fresh).
func (m *Model) widen(c Condition) float64 {
	k := c.kiloPEC()
	t := c.RetentionMonths
	if t < 0 {
		t = 0
	}
	w := 1 + m.p.WidenPerKPEC*k
	if t > 0 {
		w += m.p.WidenRetention * math.Pow(t/3, m.p.WidenRetExp)
	}
	return w
}

// tempFrac returns (85−T)/55 clamped to [0, 1]: 0 at the 85 °C reference,
// 1 at 30 °C. Reads above 85 °C are treated as 85 °C.
func tempFrac(tempC float64) float64 {
	return mathx.Clamp((85-tempC)/55, 0, 1)
}

// TempAdd returns the extra errors per 1 KiB caused by reduced channel
// mobility at low operating temperature (§5.1: +3 at 55 °C, +5 at 30 °C at
// the worst condition, smaller when the page is healthy).
func (m *Model) TempAdd(c Condition) int {
	f := tempFrac(c.TempC)
	if f == 0 { //lint:floateq tempFrac returns an exact 0 at/above the envelope; sentinel means no low-temperature penalty
		return 0
	}
	driftSat := mathx.Clamp(m.Drift(c)/20, 0, 1)
	return int(math.Round(f * (m.p.TempAddBase + m.p.TempAddDrift*driftSat)))
}

// levels returns how many read levels a page of the given kind senses under
// the model's cell technology (TLC: CSB pages see three state boundaries,
// LSB/MSB two), which scales every per-codeword error count.
func (m *Model) levels(pt nand.PageType) float64 { return float64(m.kind.NSense(pt)) }

// MaxFloorErrors returns M_ERR: the worst-page error count per 1-KiB
// codeword in the final retry step (reading at near-optimal V_REF) under the
// condition, for the given page type — the quantity Figure 7 plots (CSB is
// the worst page type and is what the figure's envelope tracks).
func (m *Model) MaxFloorErrors(c Condition, pt nand.PageType) int {
	overlap := mathx.Q(m.effSep / m.widen(c))
	raw := m.p.CellsPerKiBPerLevel * m.levels(pt) * 2 * overlap
	return int(math.Round(raw)) + m.TempAdd(c)
}

// FloorErrors returns the page's individual final-step error count per
// 1-KiB codeword (its severity-scaled share of the worst page's count).
func (m *Model) FloorErrors(pg PageID, c Condition, pt nand.PageType) int {
	_, _, _, sevU := m.pageRand(pg)
	sev := m.p.SeverityFloor + (1-m.p.SeverityFloor)*sevU
	overlap := mathx.Q(m.effSep / m.widen(c))
	raw := m.p.CellsPerKiBPerLevel * m.levels(pt) * 2 * overlap * sev
	return int(math.Round(raw)) + m.TempAdd(c)
}

// penaltyScale returns S(PEC, t_RET): the severity scale of all read-timing
// reduction penalties (§5.2's ΔM_ERR curves).
func (m *Model) penaltyScale(c Condition) float64 {
	k := c.kiloPEC()
	t := c.RetentionMonths
	if t < 0 {
		t = 0
	}
	s := m.p.PenaltyBase + m.p.PenaltyPerSqrtKPEC*math.Sqrt(k)
	if t > 0 {
		s += m.p.PenaltyRetention * math.Pow(t/12, m.p.PenaltyRetExp)
	}
	return s
}

// MaxTimingPenalty returns ΔM_ERR: the worst-page extra errors per 1-KiB
// codeword caused by reading with the given timing reduction under the
// condition — the quantity Figures 8–10 plot. The three parameters
// contribute independently plus a super-additive tPRE×tDISCH coupling
// (§5.2.2), and low temperature amplifies everything (Figure 10).
func (m *Model) MaxTimingPenalty(c Condition, r nand.Reduction) int {
	return int(math.Round(m.timingPenaltyRaw(c, r)))
}

func (m *Model) timingPenaltyRaw(c Condition, r nand.Reduction) float64 {
	if r.Pre <= 0 && r.Eval <= 0 && r.Disch <= 0 {
		return 0
	}
	s := m.penaltyScale(c)
	raw := 0.0
	if r.Pre > 0 {
		raw += s * math.Expm1(m.p.PreExpRate*r.Pre)
	}
	if r.Eval > 0 {
		raw += m.p.EvalScale * s * math.Expm1(m.p.EvalExpRate*r.Eval)
	}
	if r.Disch > 0 {
		raw += m.p.DischScale * s * math.Expm1(m.p.DischExpRate*r.Disch)
	}
	if r.Pre > 0 && r.Disch > 0 {
		raw += m.p.CoupleScale * s * math.Expm1(m.p.CoupleExpRate*r.Pre*r.Disch)
	}
	// Low temperature amplifies the penalty, but the extra errors saturate
	// near 7 bits (Figure 10's ceiling) — the budget the RPT margin covers.
	extra := raw * m.p.TempPenaltyGain
	if extra > m.p.TempPenaltyCapBits {
		extra = m.p.TempPenaltyCapBits
	}
	return raw + extra*tempFrac(c.TempC)
}

// TimingPenalty returns the page's individual timing-reduction penalty
// (severity-scaled share of the worst page's).
func (m *Model) TimingPenalty(pg PageID, c Condition, r nand.Reduction) int {
	_, _, _, sevU := m.pageRand(pg)
	sev := m.p.SeverityFloor + (1-m.p.SeverityFloor)*sevU
	scale := 0.7 + 0.3*sev
	return int(math.Round(m.timingPenaltyRaw(c, r) * scale))
}

// WallErrors returns the error count per 1-KiB codeword when reading with a
// residual V_REF offset of residMV millivolts from V_OPT — the steep error
// wall that makes all but the final retry step fail (Figure 4b's shape).
func (m *Model) WallErrors(residMV float64, pt nand.PageType) int {
	if residMV <= 0 {
		return 0
	}
	// The wall calibration tracks the kind's worst page, so a page's level
	// count is normalized by wallRefLevels (CSB's 3 sensings for TLC — the
	// historical literal 3 in this expression).
	raw := m.p.WallCoef * math.Pow(residMV, m.p.WallExp) * m.levels(pt) / m.wallRefLevels
	if raw > float64(m.p.WallCap) {
		raw = float64(m.p.WallCap)
	}
	return int(math.Round(raw))
}

// StepErrors returns the error count per 1-KiB codeword observed at retry
// step k of a read-retry operation on the page (step 0 is the initial read
// with default V_REF). Steps at or past the page's success step see the
// final-step floor; earlier steps see the wall.
func (m *Model) StepErrors(pg PageID, c Condition, pt nand.PageType, step int, r nand.Reduction) int {
	d := m.PageDrift(pg, c)
	resid := (d - float64(step)) * m.p.LadderStepMV
	penalty := m.TimingPenalty(pg, c, r)
	if resid > 0.5*m.p.LadderStepMV {
		// Still outside the success plateau: wall errors dominate; the floor
		// and timing penalty ride on top.
		return m.WallErrors(resid, pt) + m.FloorErrors(pg, c, pt) + penalty
	}
	// Within the plateau the manufacturer table's entry lands substantially
	// close to V_OPT (§2.4), so only the floor remains.
	return m.FloorErrors(pg, c, pt) + penalty
}

// ReadResult describes the outcome of a full read-retry operation on a page.
type ReadResult struct {
	// RetrySteps is N_RR: the number of retry steps after the initial read.
	// 0 means the initial read succeeded.
	RetrySteps int
	// FinalErrors is the per-1KiB error count in the final (successful)
	// step, or in the last attempted step if the read failed.
	FinalErrors int
	// Failed reports that the page could not be read below the ECC
	// capability within the manufacturer ladder (footnote 13).
	Failed bool
}

// Read simulates a complete read-retry operation: the initial read with
// default V_REF followed by ladder steps until the error count drops to the
// ECC capability or the table is exhausted. The timing reduction applies to
// every step, as AR² does.
func (m *Model) Read(pg PageID, c Condition, pt nand.PageType, r nand.Reduction) ReadResult {
	d := m.PageDrift(pg, c)
	floor := m.FloorErrors(pg, c, pt) + m.TimingPenalty(pg, c, r)
	capability := m.p.CapabilityPerKiB

	// The first step whose ladder position is within half a step of V_OPT.
	successStep := 0
	if d > 0.5 {
		successStep = int(math.Ceil(d - 0.5))
	}
	if successStep <= m.p.MaxLadderSteps && floor <= capability {
		return ReadResult{
			RetrySteps:  successStep,
			FinalErrors: floor,
		}
	}
	// Either the drift exceeds the table or even optimal V_REF cannot bring
	// the page under the capability (e.g. an over-aggressive timing
	// reduction): the retry operation runs the whole table and fails.
	last := m.StepErrors(pg, c, pt, m.p.MaxLadderSteps, r)
	return ReadResult{
		RetrySteps:  m.p.MaxLadderSteps,
		FinalErrors: last,
		Failed:      true,
	}
}

// RetrySteps is a convenience wrapper returning only N_RR for a read of the
// kind's worst page (CSB for TLC) with default timing.
func (m *Model) RetrySteps(pg PageID, c Condition) int {
	return m.Read(pg, c, m.kind.WorstPage(), nand.Reduction{}).RetrySteps
}
