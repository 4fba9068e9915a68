package core

import (
	"readretry/internal/sim"
)

// StepTimings carries the per-operation latencies a plan is built from. The
// SSD fills these from the chip's timing (Table 1), the page's type, and —
// for adaptive schemes — the RPT's reduced sensing latency.
type StepTimings struct {
	SenseDefault sim.Time // tR with manufacturer timing
	SenseReduced sim.Time // tR with the RPT-chosen reduction (AR²/PnAR²)
	DMA          sim.Time // tDMA, page transfer to the controller
	ECC          sim.Time // tECC, decode latency
	Set          sim.Time // tSET, SET FEATURE
	Reset        sim.Time // tRST, RESET of an in-flight read
}

// Options tweak controller behaviour for the ablation studies called out in
// DESIGN.md §6. The zero value is the paper's proposal.
type Options struct {
	// NoSpeculativeReset disables PR²'s RESET of the unnecessarily started
	// retry step; the die instead stays busy until the speculative sensing
	// finishes (ablation 1).
	NoSpeculativeReset bool
	// PerStepSetFeature makes AR² reprogram the timing before every retry
	// step instead of once per retry operation (ablation 2).
	PerStepSetFeature bool
}

// BuildPlan constructs the operation tree for a read that needs nrr retry
// steps under the given scheme. NoRR ignores nrr (the ideal SSD never
// retries).
func BuildPlan(s Scheme, nrr int, t StepTimings, opts Options) Plan {
	if nrr < 0 {
		nrr = 0
	}
	if s == NoRR {
		nrr = 0
	}
	// Every scheme's tree has at most 4 ops per retry step plus 8 more, so
	// one allocation holds the whole plan.
	b := planBuilder{plan: Plan{Scheme: s, NRR: nrr, Ops: make([]Op, 0, 4*nrr+8)}}
	switch s {
	case PR2:
		b.buildPR2(nrr, t, opts)
	case AR2:
		b.buildAR2(nrr, t, opts)
	case PnAR2:
		b.buildPnAR2(nrr, t, opts)
	default: // Baseline, NoRR
		b.buildRegular(nrr, t)
	}
	b.plan.Finalize()
	return b.plan
}

type planBuilder struct {
	plan Plan
}

// add appends an op whose parent is op parent (-1 for the root) and
// returns its index.
func (b *planBuilder) add(kind OpKind, res Resource, dur sim.Time, step, parent int) int {
	b.plan.Ops = append(b.plan.Ops, Op{Kind: kind, Res: res, Dur: dur, Step: step, Parent: parent})
	return len(b.plan.Ops) - 1
}

// buildRegular emits Figure 12(a): sense → DMA → ECC, strictly serialized
// across retry steps (a new step starts only after the previous ECC fails).
func (b *planBuilder) buildRegular(nrr int, t StepTimings) {
	ecc, dma := -1, 0
	for k := 0; k <= nrr; k++ {
		sense := b.add(OpSense, ResDie, t.SenseDefault, k, ecc)
		dma = b.add(OpDMA, ResChannel, t.DMA, k, sense)
		ecc = b.add(OpECC, ResECC, t.ECC, k, dma)
	}
	b.plan.ResponseOp = ecc
	b.plan.ReleaseOp = dma
}

// buildPR2 emits Figure 12(b): sensings chain back-to-back on the die via
// CACHE READ; each step's DMA and ECC overlap the next sensing. After the
// final ECC succeeds, a RESET kills the speculatively started extra step.
func (b *planBuilder) buildPR2(nrr int, t StepTimings, opts Options) {
	sense, ecc := -1, -1
	for k := 0; k <= nrr; k++ {
		sense = b.add(OpSense, ResDie, t.SenseDefault, k, sense)
		dma := b.add(OpDMA, ResChannel, t.DMA, k, sense)
		ecc = b.add(OpECC, ResECC, t.ECC, k, dma)
	}
	b.plan.ResponseOp = ecc
	if opts.NoSpeculativeReset {
		// Ablation: the speculative (nrr+1)-th sensing runs to completion
		// and only then is the die free.
		b.plan.ReleaseOp = b.add(OpSense, ResDie, t.SenseDefault, nrr+1, sense)
		return
	}
	// The speculative step is killed as soon as ECC succeeds (§6.1); the
	// RESET's tRST is the only residual die occupancy.
	b.plan.ReleaseOp = b.add(OpReset, ResDie, t.Reset, nrr+1, ecc)
}

// buildAR2 emits Figure 13 without pipelining: the initial read fails, the
// controller programs reduced timing once (❷), performs serialized retry
// steps at the shorter tR (❸), and rolls the timing back (❹).
func (b *planBuilder) buildAR2(nrr int, t StepTimings, opts Options) {
	s0 := b.add(OpSense, ResDie, t.SenseDefault, 0, -1)
	d0 := b.add(OpDMA, ResChannel, t.DMA, 0, s0)
	ecc := b.add(OpECC, ResECC, t.ECC, 0, d0)
	b.plan.ResponseOp, b.plan.ReleaseOp = ecc, d0
	if nrr == 0 {
		// No failure: a plain read, no SET FEATURE traffic at all.
		return
	}
	gate := b.add(OpSetFeature, ResDie, t.Set, 1, ecc)
	for k := 1; k <= nrr; k++ {
		if opts.PerStepSetFeature && k > 1 {
			gate = b.add(OpSetFeature, ResDie, t.Set, k, ecc)
		}
		sense := b.add(OpSense, ResDie, t.SenseReduced, k, gate)
		dma := b.add(OpDMA, ResChannel, t.DMA, k, sense)
		ecc = b.add(OpECC, ResECC, t.ECC, k, dma)
		gate = ecc
	}
	b.plan.ResponseOp = ecc
	// Roll back to default timing once the operation concludes; the host
	// response does not wait for it, but the die does.
	b.plan.ReleaseOp = b.add(OpSetFeature, ResDie, t.Set, nrr, ecc)
}

// buildPnAR2 combines both techniques: PR² speculation runs the first
// (default-timing) retry step early; when the initial ECC fails, the
// controller RESETs that speculative step, programs reduced timing, and
// pipelines the remaining retry steps at the shorter tR.
func (b *planBuilder) buildPnAR2(nrr int, t StepTimings, opts Options) {
	s0 := b.add(OpSense, ResDie, t.SenseDefault, 0, -1)
	d0 := b.add(OpDMA, ResChannel, t.DMA, 0, s0)
	e0 := b.add(OpECC, ResECC, t.ECC, 0, d0)
	b.plan.ResponseOp = e0
	if nrr == 0 {
		// Clean read: only the PR² speculation cleanup remains.
		if opts.NoSpeculativeReset {
			b.plan.ReleaseOp = b.add(OpSense, ResDie, t.SenseDefault, 1, s0)
			return
		}
		b.plan.ReleaseOp = b.add(OpReset, ResDie, t.Reset, 1, e0)
		return
	}
	// Kill the speculative default-timing step, then switch timing.
	reset := b.add(OpReset, ResDie, t.Reset, 1, e0)
	gate := b.add(OpSetFeature, ResDie, t.Set, 1, reset)
	sense, ecc := -1, -1
	for k := 1; k <= nrr; k++ {
		if opts.PerStepSetFeature && k > 1 {
			gate = b.add(OpSetFeature, ResDie, t.Set, k, sense)
		}
		sense = b.add(OpSense, ResDie, t.SenseReduced, k, gate)
		dma := b.add(OpDMA, ResChannel, t.DMA, k, sense)
		ecc = b.add(OpECC, ResECC, t.ECC, k, dma)
		gate = sense
	}
	b.plan.ResponseOp = ecc
	// The pipeline speculatively started an (nrr+1)-th reduced step; kill
	// it and restore default timing (Figure 13 ends with tRST + ❹).
	if opts.NoSpeculativeReset {
		spec := b.add(OpSense, ResDie, t.SenseReduced, nrr+1, sense)
		b.plan.ReleaseOp = b.add(OpSetFeature, ResDie, t.Set, nrr+1, spec)
		return
	}
	finalReset := b.add(OpReset, ResDie, t.Reset, nrr+1, ecc)
	b.plan.ReleaseOp = b.add(OpSetFeature, ResDie, t.Set, nrr+1, finalReset)
}
