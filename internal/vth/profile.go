package vth

import (
	"math"

	"readretry/internal/mathx"
	"readretry/internal/nand"
)

// ConditionProfile is the condition-resident fast path through the error
// model: every term of the analytic model that depends only on the operating
// condition and the programmed timing reduction — mean V_OPT drift, the
// per-page-type final-step error floor, the temperature error addition, and
// the raw read-timing penalty — is evaluated once when the profile is built.
// Per-read evaluation then reduces to the page's three cached uniform
// variates and a handful of multiply-adds, with zero heap allocations and no
// transcendental calls on the success path.
//
// This mirrors the paper's own AR² structure: the expensive
// condition-dependent work (there, profiling the RPT; here, the widened
// distribution overlap, penalty scale, and drift polynomials) is hoisted out
// of the per-read path.
//
// Determinism contract: for every (page, page type) a profile's Read and
// StepErrors, and the pageDrift, floorErrors and timingPenalty terms they
// share, return values bit-identical to the equivalent Model call at the
// profile's condition and reduction. Each shared floating-point subexpression is factored with its
// original left-to-right association so no rounding step changes, and the
// per-page variates come from the same pageRand derivation. The vth test
// suite enforces this exhaustively over a condition × reduction × page grid.
//
// A profile is immutable after construction and safe for concurrent use.
type ConditionProfile struct {
	m *Model

	meanDrift float64 // Drift(cond)
	tempAdd   int     // TempAdd(cond)
	// floorRaw[pt] = CellsPerKiBPerLevel × levels(pt) × 2 × overlap(cond):
	// the worst-page final-step error count before severity scaling, per
	// page kind (LSB, CSB, MSB for TLC). Sized for the largest supported
	// cell kind (QLC's 4 page kinds) and fixed so the profile stays
	// allocation-free; kinds with fewer page kinds leave the tail zero.
	floorRaw [4]float64
	// penaltyRaw = timingPenaltyRaw(cond, red): the worst-page timing
	// penalty before severity scaling.
	penaltyRaw float64
}

// Profile precomputes the condition-resident terms of the model for one
// (condition, reduction) pair. Building a profile costs a few transcendental
// evaluations — the same ones a single Model.Read would spend — and pays for
// itself after the first read.
func (m *Model) Profile(c Condition, r nand.Reduction) *ConditionProfile {
	p := &ConditionProfile{
		m:          m,
		meanDrift:  m.Drift(c),
		tempAdd:    m.TempAdd(c),
		penaltyRaw: m.timingPenaltyRaw(c, r),
	}
	overlap := mathx.Q(m.effSep / m.widen(c))
	for pt := nand.PageType(0); int(pt) < m.kind.PageKinds(); pt++ {
		p.floorRaw[pt] = m.p.CellsPerKiBPerLevel * m.levels(pt) * 2 * overlap
	}
	return p
}

// pageDrift is Model.PageDrift given the page's already-drawn variates.
func (p *ConditionProfile) pageDrift(blockU, pageU, jitterU float64) float64 {
	if p.meanDrift == 0 { //lint:floateq mirrors Model.PageDrift's exact-0 sentinel; both paths must stay bit-identical
		return 0
	}
	blockF := 1 + p.m.p.BlockFactorSpread*(2*blockU-1)
	pageF := 1 + p.m.p.PageFactorSpread*(2*pageU-1)
	jitter := p.m.p.DriftJitterSteps * boundedNormal(jitterU)
	d := p.meanDrift*blockF*pageF + jitter
	if d < 0 {
		return 0
	}
	return d
}

// floorErrors is Model.FloorErrors given the page's severity variate.
func (p *ConditionProfile) floorErrors(pt nand.PageType, sevU float64) int {
	sev := p.m.p.SeverityFloor + (1-p.m.p.SeverityFloor)*sevU
	return int(math.Round(p.floorRaw[pt]*sev)) + p.tempAdd
}

// timingPenalty is Model.TimingPenalty given the page's severity variate.
func (p *ConditionProfile) timingPenalty(sevU float64) int {
	sev := p.m.p.SeverityFloor + (1-p.m.p.SeverityFloor)*sevU
	scale := 0.7 + 0.3*sev
	return int(math.Round(p.penaltyRaw * scale))
}

// StepErrors returns the error count at retry step k
// (Model.StepErrors at the profile's condition and reduction).
func (p *ConditionProfile) StepErrors(pg PageID, pt nand.PageType, step int) int {
	blockU, pageU, jitterU, sevU := p.m.pageRand(pg)
	d := p.pageDrift(blockU, pageU, jitterU)
	resid := (d - float64(step)) * p.m.p.LadderStepMV
	penalty := p.timingPenalty(sevU)
	if resid > 0.5*p.m.p.LadderStepMV {
		return p.m.WallErrors(resid, pt) + p.floorErrors(pt, sevU) + penalty
	}
	return p.floorErrors(pt, sevU) + penalty
}

// Read simulates a complete read-retry operation
// (Model.Read at the profile's condition and reduction). The page's variates
// are drawn once and shared by the drift, floor, and penalty terms — the
// slow path derives the identical values three times over.
func (p *ConditionProfile) Read(pg PageID, pt nand.PageType) ReadResult {
	blockU, pageU, jitterU, sevU := p.m.pageRand(pg)
	d := p.pageDrift(blockU, pageU, jitterU)
	penalty := p.timingPenalty(sevU)
	floor := p.floorErrors(pt, sevU) + penalty
	capability := p.m.p.CapabilityPerKiB

	successStep := 0
	if d > 0.5 {
		successStep = int(math.Ceil(d - 0.5))
	}
	if successStep <= p.m.p.MaxLadderSteps && floor <= capability {
		return ReadResult{
			RetrySteps:  successStep,
			FinalErrors: floor,
		}
	}
	resid := (d - float64(p.m.p.MaxLadderSteps)) * p.m.p.LadderStepMV
	last := floor // floorErrors + penalty, already computed above
	if resid > 0.5*p.m.p.LadderStepMV {
		last = p.m.WallErrors(resid, pt) + floor
	}
	return ReadResult{
		RetrySteps:  p.m.p.MaxLadderSteps,
		FinalErrors: last,
		Failed:      true,
	}
}

// ProfileMemo is one reader's memo of Model's condition profiles: the last
// profile read under and a map of every profile built. A profile depends
// only on its (condition, reduction) key, so nothing is ever invalidated.
// With Direct set, reads evaluate Model instead: the reference path the
// differential tests compare against. A memo is not safe for concurrent use.
type ProfileMemo struct {
	Model  *Model
	Direct bool
	key    profileKey
	last   *ConditionProfile
	all    map[profileKey]*ConditionProfile
}

type profileKey struct {
	cond Condition
	red  nand.Reduction
}

// Len returns the number of profiles the memo has built.
func (pm *ProfileMemo) Len() int { return len(pm.all) }

// profile returns the profile for (c, r), building it on first use.
func (pm *ProfileMemo) profile(c Condition, r nand.Reduction) *ConditionProfile {
	key := profileKey{c, r}
	if pm.last != nil && key == pm.key {
		return pm.last
	}
	p, ok := pm.all[key]
	if !ok {
		if pm.all == nil {
			pm.all = make(map[profileKey]*ConditionProfile)
		}
		p = pm.Model.Profile(c, r)
		pm.all[key] = p
	}
	pm.key, pm.last = key, p
	return p
}

// Read is Model.Read, through the profile for (c, r).
func (pm *ProfileMemo) Read(pg PageID, c Condition, pt nand.PageType, r nand.Reduction) ReadResult {
	if pm.Direct {
		return pm.Model.Read(pg, c, pt, r)
	}
	return pm.profile(c, r).Read(pg, pt)
}

// StepErrors is Model.StepErrors, through the profile for (c, r).
func (pm *ProfileMemo) StepErrors(pg PageID, c Condition, pt nand.PageType, step int, r nand.Reduction) int {
	if pm.Direct {
		return pm.Model.StepErrors(pg, c, pt, step, r)
	}
	return pm.profile(c, r).StepErrors(pg, pt, step)
}
