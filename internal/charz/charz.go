// Package charz is the characterization laboratory: the software equivalent
// of the paper's FPGA-based chip-testing platform (§4). It drives a fleet of
// behavioral NAND chips through the same experiments the paper performs on
// 160 real chips — retry-step counting, final-retry-step error measurement,
// and read-timing-reduction sweeps — and returns the data series behind
// Figures 4b, 5, 7, 8, 9, 10, and 11.
//
// Like the real platform, the lab measures by issuing reads (optionally
// after SET FEATURE commands) and recording per-step error counts; it never
// peeks at the error model's closed forms, so its outputs carry the same
// sampling character as bench measurements.
package charz

import (
	"fmt"

	"readretry/internal/chip"
	"readretry/internal/nand"
	"readretry/internal/rng"
	"readretry/internal/rpt"
	"readretry/internal/vth"
)

// Lab samples pages from a chip fleet. The paper tests 120 random blocks
// from each of 160 chips; the lab draws a configurable number of page reads
// per experiment from that population.
type Lab struct {
	fleet *chip.Fleet
	// BlocksPerChip is the number of randomly selected test blocks per
	// chip (120 in §4).
	BlocksPerChip int
	// SampleReads is the number of page reads per measured condition.
	SampleReads int
	seed        uint64
	blockChoice [][]int // per chip: the selected block linear indices
	// kindSalt keys experiment sampling labels by the fleet's cell
	// geometry, so a QLC lab draws an independent page population from a
	// TLC lab at the same seed. It is zero for TLC, keeping every
	// historical TLC experiment byte-identical.
	kindSalt uint64
}

// NewLab builds a lab over the fleet with the paper's 120-blocks-per-chip
// selection and the given per-condition sample size.
func NewLab(fleet *chip.Fleet, sampleReads int, seed uint64) *Lab {
	l := &Lab{
		fleet:         fleet,
		BlocksPerChip: 120,
		SampleReads:   sampleReads,
		seed:          seed,
	}
	if kind := fleet.Chips[0].Geometry().CellKind(); kind != nand.TLC {
		l.kindSalt = uint64(kind) * 0x9e3779b97f4a7c15
	}
	src := rng.New(seed)
	for ci, c := range fleet.Chips {
		total := c.Geometry().Dies * c.Geometry().BlocksPerDie()
		n := l.BlocksPerChip
		if n > total {
			n = total
		}
		chipSrc := src.Split(uint64(ci))
		choice := make([]int, n)
		for i := range choice {
			choice[i] = chipSrc.Intn(total)
		}
		l.blockChoice = append(l.blockChoice, choice)
	}
	return l
}

// DefaultLab builds the paper's 160-chip testbed with a given sample size.
func DefaultLab(sampleReads int, seed uint64) *Lab {
	return NewLab(chip.DefaultFleet(seed), sampleReads, seed)
}

// Model returns the fleet's underlying error model, for closed-form
// cross-checks against the lab's sampled measurements.
func (l *Lab) Model() *vth.Model { return l.fleet.Chips[0].Model() }

// samplePage picks a (chip, address) pair from the test population.
func (l *Lab) samplePage(src *rng.Source) (*chip.Chip, nand.Address) {
	ci := src.Intn(len(l.fleet.Chips))
	c := l.fleet.Chips[ci]
	g := c.Geometry()
	blockLinear := l.blockChoice[ci][src.Intn(len(l.blockChoice[ci]))]
	plane := blockLinear / g.BlocksPerPlane % g.PlanesPerDie
	die := blockLinear / (g.BlocksPerPlane * g.PlanesPerDie)
	block := blockLinear % g.BlocksPerPlane
	page := src.Intn(g.PagesPerBlock)
	return c, nand.Address{Die: die, Plane: plane, Block: block, Page: page}
}

// forEachSample preconditions the fleet — aging state plus the chamber's
// operating temperature — and calls fn for SampleReads pages. Experiments
// that sweep several temperatures over one aging state pass their
// reference temperature here and override per read.
func (l *Lab) forEachSample(pec int, months, tempC float64, label uint64, fn func(*chip.Chip, nand.Address)) {
	l.fleet.SetCondition(pec, months, tempC)
	src := rng.New(l.seed).Split(label ^ l.kindSalt)
	for i := 0; i < l.SampleReads; i++ {
		c, addr := l.samplePage(src)
		fn(c, addr)
	}
}

// --- Figure 5: retry-step distribution -------------------------------------

// RetryHistogram is one column of Figure 5: the distribution of retry-step
// counts at one operating condition.
type RetryHistogram struct {
	PEC    int
	Months float64
	// Counts[n] is the number of sampled reads needing exactly n retry
	// steps.
	Counts []int
	Total  int
	Mean   float64
	Min    int
	Max    int
}

// FractionAtLeast returns P(N_RR ≥ n), the statistic behind the paper's
// dot-circle annotations.
func (h RetryHistogram) FractionAtLeast(n int) float64 {
	if h.Total == 0 {
		return 0
	}
	c := 0
	for i := n; i < len(h.Counts); i++ {
		c += h.Counts[i]
	}
	return float64(c) / float64(h.Total)
}

// RetrySteps measures the retry-step distribution at one condition,
// reading at the given operating temperature with default timing.
func (l *Lab) RetrySteps(pec int, months, tempC float64) RetryHistogram {
	h := RetryHistogram{PEC: pec, Months: months, Min: 1 << 30}
	sum := 0
	l.forEachSample(pec, months, tempC, expLabel(5, pec, months, tempC), func(c *chip.Chip, a nand.Address) {
		n := c.ReadRetry(a, tempC).RetrySteps
		for len(h.Counts) <= n {
			h.Counts = append(h.Counts, 0)
		}
		h.Counts[n]++
		h.Total++
		sum += n
		if n < h.Min {
			h.Min = n
		}
		if n > h.Max {
			h.Max = n
		}
	})
	if h.Total > 0 {
		h.Mean = float64(sum) / float64(h.Total)
	} else {
		h.Min = 0
	}
	return h
}

// Figure5 sweeps the paper's grid: retention 0–12 months at each P/E-cycle
// count, at 30 °C (the most error-prone operating point, matching the
// JEDEC-style effective ages).
func (l *Lab) Figure5(pecs []int, months []float64) []RetryHistogram {
	var out []RetryHistogram
	for _, pec := range pecs {
		for _, mo := range months {
			out = append(out, l.RetrySteps(pec, mo, 30))
		}
	}
	return out
}

// --- Figure 4b: RBER across the last retry steps ---------------------------

// LadderSeries records the measured errors per 1 KiB at each retry step of
// one page's read-retry operation (step index 0 = initial read), sampled at
// (PEC, Months).
type LadderSeries struct {
	PEC         int
	Months      float64
	StepsNeeded int
	// ErrorsPerStep[k] is the error count observed at retry step k.
	ErrorsPerStep []int
}

// RBERLadder finds a page needing approximately wantSteps retry steps under
// the condition and measures its per-step error counts — Figure 4b's
// series. It returns an error if no sampled page needs that many steps.
func (l *Lab) RBERLadder(pec int, months float64, wantSteps int) (LadderSeries, error) {
	var found *LadderSeries
	l.forEachSample(pec, months, 30, expLabel(4, pec, months, float64(wantSteps)), func(c *chip.Chip, a nand.Address) {
		if found != nil {
			return
		}
		res := c.ReadRetry(a, 30)
		if res.Failed || res.RetrySteps != wantSteps {
			return
		}
		s := LadderSeries{PEC: pec, Months: months, StepsNeeded: res.RetrySteps}
		for k := 0; k <= res.RetrySteps; k++ {
			s.ErrorsPerStep = append(s.ErrorsPerStep, c.StepErrors(a, 30, k))
		}
		found = &s
	})
	if found == nil {
		return LadderSeries{}, fmt.Errorf("charz: no sampled page needs %d retry steps at (%d, %gmo)",
			wantSteps, pec, months)
	}
	return *found, nil
}

// --- Figure 7: ECC-capability margin in the final retry step ---------------

// MarginPoint is one bar of Figure 7.
type MarginPoint struct {
	PEC    int
	Months float64
	TempC  float64
	// MErr is the maximum measured raw bit errors per 1 KiB in the final
	// retry step across the sample.
	MErr int
	// Margin is the remaining ECC capability (capability − MErr).
	Margin int
}

// FinalStepMargin measures M_ERR over the grid of conditions and
// temperatures.
func (l *Lab) FinalStepMargin(pecs []int, months []float64, temps []float64) []MarginPoint {
	capability := l.fleet.Chips[0].Model().Capability()
	var out []MarginPoint
	for _, temp := range temps {
		for _, pec := range pecs {
			for _, mo := range months {
				maxErr := 0
				l.forEachSample(pec, mo, temp, expLabel(7, pec, mo, temp), func(c *chip.Chip, a nand.Address) {
					if e := c.ReadRetry(a, temp).FinalErrors; e > maxErr {
						maxErr = e
					}
				})
				out = append(out, MarginPoint{
					PEC: pec, Months: mo, TempC: temp,
					MErr: maxErr, Margin: capability - maxErr,
				})
			}
		}
	}
	return out
}

// --- Figures 8–10: read-timing reduction sweeps -----------------------------

// SweepPoint is one point of a timing-reduction sweep.
type SweepPoint struct {
	PEC      int
	Months   float64
	TempC    float64
	Red      nand.Reduction
	MErr     int // max errors in the final retry step with the reduction
	DeltaErr int // increase over the unreduced maximum at the same condition
}

// TimingSweep measures ΔM_ERR as one or more timing parameters reduce —
// Figures 8 (individual parameters) and 9 (combined) — at the given
// temperature (85 °C in Figure 8/9).
func (l *Lab) TimingSweep(pec int, months, tempC float64, reductions []nand.Reduction) []SweepPoint {
	base := l.maxFinalErrors(pec, months, tempC, nand.FeatureRegister{})
	out := make([]SweepPoint, 0, len(reductions))
	for _, red := range reductions {
		var reg nand.FeatureRegister
		reg.Set(nand.FractionLevel(red.Pre), nand.FractionLevel(red.Eval), nand.FractionLevel(red.Disch))
		m := l.maxFinalErrors(pec, months, tempC, reg)
		out = append(out, SweepPoint{
			PEC: pec, Months: months, TempC: tempC,
			Red: reg.Reduction(), MErr: m, DeltaErr: m - base,
		})
	}
	return out
}

// maxFinalErrors measures the max final-step error count under a feature
// register setting, restoring default timing afterwards (as the test
// platform does between runs).
func (l *Lab) maxFinalErrors(pec int, months, tempC float64, reg nand.FeatureRegister) int {
	maxErr := 0
	label := expLabel(8, pec, months, tempC) ^ uint64(reg.PreLevel)<<32 ^
		uint64(reg.EvalLevel)<<40 ^ uint64(reg.DischLevel)<<48
	l.forEachSample(pec, months, tempC, label, func(c *chip.Chip, a nand.Address) {
		c.SetFeature(reg)
		if e := c.ReadRetry(a, tempC).FinalErrors; e > maxErr {
			maxErr = e
		}
		c.ResetFeature()
	})
	return maxErr
}

// TemperatureSweep measures the extra errors that low operating temperature
// adds to a tPRE reduction (Figure 10): ΔM_ERR(T) − ΔM_ERR(85 °C) for each
// reduction level.
func (l *Lab) TemperatureSweep(pec int, months float64, temps []float64, preLevels []int) []SweepPoint {
	var out []SweepPoint
	ref := make(map[int]int)
	base85 := l.maxFinalErrors(pec, months, 85, nand.FeatureRegister{})
	for _, level := range preLevels {
		var reg nand.FeatureRegister
		reg.Set(level, 0, 0)
		ref[level] = l.maxFinalErrors(pec, months, 85, reg) - base85
	}
	for _, temp := range temps {
		base := l.maxFinalErrors(pec, months, temp, nand.FeatureRegister{})
		for _, level := range preLevels {
			var reg nand.FeatureRegister
			reg.Set(level, 0, 0)
			delta := l.maxFinalErrors(pec, months, temp, reg) - base
			out = append(out, SweepPoint{
				PEC: pec, Months: months, TempC: temp,
				Red:      reg.Reduction(),
				MErr:     delta,              // ΔM_ERR at this temperature
				DeltaErr: delta - ref[level], // increase over 85 °C
			})
		}
	}
	return out
}

// --- Figure 11: minimum safe tPRE -------------------------------------------

// SafePoint is one bar of Figure 11: the selected tPRE reduction for a
// condition, with the 14-bit safety margin applied.
type SafePoint struct {
	PEC       int
	Months    float64
	Level     int     // feature-register level
	Reduction float64 // fraction of default tPRE removed
}

// MinSafeTPre computes the largest safe tPRE reduction per condition using
// the same rule the RPT profiler applies (§5.2.3's margin accounting).
func (l *Lab) MinSafeTPre(pecs []int, months []float64, marginBits int) []SafePoint {
	model := l.fleet.Chips[0].Model()
	var out []SafePoint
	for _, pec := range pecs {
		for _, mo := range months {
			cond := vth.Condition{PEC: pec, RetentionMonths: mo, TempC: 85}
			level := rpt.SafeLevel(model, cond, marginBits, nand.MaxFeatureLevel)
			out = append(out, SafePoint{
				PEC: pec, Months: mo,
				Level: level, Reduction: nand.LevelFraction(level),
			})
		}
	}
	return out
}

// expLabel derives a deterministic RNG label for an experiment so repeated
// runs sample identical page populations.
func expLabel(figure int, pec int, months, extra float64) uint64 {
	return uint64(figure)<<56 ^ uint64(pec)<<32 ^
		uint64(months*16)<<16 ^ uint64(extra*8)
}
