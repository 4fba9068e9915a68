// Package chip combines the structural NAND model (internal/nand) with the
// calibrated error model (internal/vth) into a behavioral 3D TLC NAND flash
// chip: one uniform (P/E, retention, temperature) condition, the
// read-timing feature register programmed via SET FEATURE, and read-retry
// execution.
//
// A Fleet of 160 such chips stands in for the population the paper
// characterizes, for the characterization lab (internal/charz). The SSD
// simulator keeps each block's wear in its FTL and reads internal/vth.
package chip

import (
	"fmt"

	"readretry/internal/nand"
	"readretry/internal/sim"
	"readretry/internal/vth"
)

// Chip is one behavioral NAND flash chip.
type Chip struct {
	geom   nand.Geometry
	timing nand.Timing
	index  int
	// cond is every block's condition and the resident temperature, as
	// SetCondition set them. Reads take their own temperature (the lab
	// sweeps it read by read); callers at the resident one pass Temp().
	cond vth.Condition
	// features is the read-timing feature register (SET FEATURE target).
	features nand.FeatureRegister
	// profiles memoizes the error model's condition profiles.
	profiles vth.ProfileMemo
}

// New builds a chip with the given geometry and timing over a shared error
// model. index identifies the chip within its fleet for process variation.
func New(geom nand.Geometry, timing nand.Timing, model *vth.Model, index int) (*Chip, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if model.Kind() != geom.CellKind() {
		return nil, fmt.Errorf("chip: geometry is %v but error model is calibrated for %v",
			geom.CellKind(), model.Kind())
	}
	return &Chip{
		geom:     geom,
		timing:   timing,
		index:    index,
		profiles: vth.ProfileMemo{Model: model},
	}, nil
}

// SetFastPath selects the memoized profiles (on, the default) or direct
// model evaluation, and empties the memo. It exists for the differential
// tests that compare the two; production callers leave it on.
func (c *Chip) SetFastPath(on bool) { c.profiles = vth.ProfileMemo{Model: c.Model(), Direct: !on} }

// Geometry returns the chip's organization.
func (c *Chip) Geometry() nand.Geometry { return c.geom }

// Model returns the underlying error model.
func (c *Chip) Model() *vth.Model { return c.profiles.Model }

// SetCondition preconditions every block of the chip to the given P/E-cycle
// count and retention age and sets the chip's operating temperature — the
// accelerated-aging + thermal-chamber step of a characterization run.
func (c *Chip) SetCondition(pec int, retentionMonths, tempC float64) {
	c.cond = vth.Condition{PEC: pec, RetentionMonths: retentionMonths, TempC: tempC}
}

// Temp returns the chip's resident operating temperature, as set by
// SetCondition.
func (c *Chip) Temp() float64 { return c.cond.TempC }

// at returns the chip's condition at the given operating temperature.
func (c *Chip) at(tempC float64) vth.Condition {
	cond := c.cond
	cond.TempC = tempC
	return cond
}

// pageID returns the process-variation identity of a page.
func (c *Chip) pageID(a nand.Address) vth.PageID {
	return vth.PageID{
		Chip:  c.index,
		Block: a.BlockOf().Linear(c.geom),
		Page:  a.Page,
	}
}

// SetFeature programs the read-timing feature register and returns the
// command latency (tSET).
func (c *Chip) SetFeature(reg nand.FeatureRegister) sim.Time {
	c.features = reg
	return c.timing.TSet
}

// ResetFeature restores the manufacturer-default read timing and returns
// the command latency (tSET) — AR²'s rollback step ❹.
func (c *Chip) ResetFeature() sim.Time {
	return c.SetFeature(nand.FeatureRegister{})
}

// Features returns the current feature register (GET FEATURE).
func (c *Chip) Features() nand.FeatureRegister { return c.features }

// ReadRetry walks the full read-retry ladder for the page under the current
// feature register and operating temperature, returning the error model's
// outcome (retry steps, final error count, failure).
func (c *Chip) ReadRetry(a nand.Address, tempC float64) vth.ReadResult {
	if !a.Valid(c.geom) {
		panic(fmt.Sprintf("chip: invalid address %v", a))
	}
	return c.profiles.Read(c.pageID(a), c.at(tempC), c.geom.PageType(a.Page), c.features.Reduction())
}

// StepErrors returns the raw bit errors per 1 KiB observed at a specific
// retry step (0 = initial read) — the per-step RBER measurement the
// characterization platform performs (§4).
func (c *Chip) StepErrors(a nand.Address, tempC float64, step int) int {
	return c.profiles.StepErrors(c.pageID(a), c.at(tempC), c.geom.PageType(a.Page), step, c.features.Reduction())
}

// Fleet is a population of chips sharing one error model — the 160-chip
// testbed of the characterization study.
type Fleet struct {
	Chips []*Chip
}

// NewFleet builds n chips with identical geometry/timing over a fresh error
// model seeded by seed.
func NewFleet(n int, geom nand.Geometry, timing nand.Timing, params vth.Params, seed uint64) (*Fleet, error) {
	model := vth.NewModel(params, seed)
	f := &Fleet{Chips: make([]*Chip, n)}
	for i := range f.Chips {
		c, err := New(geom, timing, model, i)
		if err != nil {
			return nil, err
		}
		f.Chips[i] = c
	}
	return f, nil
}

// DefaultFleet builds the paper's testbed: 160 chips with default geometry,
// timing, and the calibrated error model.
func DefaultFleet(seed uint64) *Fleet {
	f, err := NewFleet(160, nand.DefaultGeometry(), nand.DefaultTiming(), vth.DefaultParams(), seed)
	if err != nil {
		panic(err) // defaults are valid by construction
	}
	return f
}

// SetCondition preconditions every chip in the fleet and sets the common
// operating temperature.
func (f *Fleet) SetCondition(pec int, retentionMonths, tempC float64) {
	for _, c := range f.Chips {
		c.SetCondition(pec, retentionMonths, tempC)
	}
}
