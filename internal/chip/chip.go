// Package chip combines the structural NAND model (internal/nand) with the
// calibrated error model (internal/vth) into a behavioral 3D TLC NAND flash
// chip: per-block P/E-cycle and retention state, the read-timing feature
// register programmed via SET FEATURE, and read-retry execution.
//
// A Fleet of 160 such chips stands in for the population the paper
// characterizes; the characterization lab (internal/charz) and the SSD
// simulator (internal/ssd) both drive chips through this interface.
package chip

import (
	"fmt"

	"readretry/internal/nand"
	"readretry/internal/sim"
	"readretry/internal/vth"
)

// BlockState tracks the reliability-relevant state of one physical block —
// exactly the metadata the paper notes a regular SSD already maintains
// (footnote 12): P/E-cycle count and programming time (expressed here as an
// effective retention age).
type BlockState struct {
	PEC             int
	RetentionMonths float64
}

// profileKey identifies the error-model profile a read executes under: the
// block's reliability state, the operating temperature, and the read-timing
// reduction programmed in the feature register.
type profileKey struct {
	cond vth.Condition
	red  nand.Reduction
}

// Chip is one behavioral NAND flash chip.
type Chip struct {
	geom   nand.Geometry
	timing nand.Timing
	model  *vth.Model
	index  int
	blocks []BlockState
	// features is the read-timing feature register (SET FEATURE target).
	features nand.FeatureRegister

	// tempC is the chip's resident operating temperature — the third axis
	// of the condition state SetCondition establishes. Read-facing methods
	// take an explicit per-read temperature (the characterization lab
	// sweeps it read-by-read); callers that operate the chip at its
	// conditioned ambient (the SSD simulator) pass Temp().
	tempC float64

	// fastPath selects the condition-resident profile path for reads; it is
	// on by default and disabled only by differential tests that pin the
	// fast path to the direct model evaluation.
	fastPath bool
	// active is the most recently used profile with its key; profiles is the
	// memo of every profile this chip has executed under. Profile contents
	// depend only on (condition, reduction, model), so entries never go
	// stale — the active slot is invalidated on SetCondition and SET FEATURE
	// and re-keyed per read, which covers Program/Erase mutating a block's
	// state under it.
	activeKey profileKey
	active    *vth.ConditionProfile
	profiles  map[profileKey]*vth.ConditionProfile
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
		model:    model,
		index:    index,
		blocks:   make([]BlockState, geom.Dies*geom.BlocksPerDie()),
		fastPath: true,
		profiles: make(map[profileKey]*vth.ConditionProfile),
	}, nil
}

// SetFastPath toggles the condition-resident profile path. It exists for the
// differential tests that compare the fast path against the direct model
// evaluation; production callers leave it on.
func (c *Chip) SetFastPath(on bool) {
	c.fastPath = on
	c.invalidateProfile()
}

// invalidateProfile drops the active profile so the next read re-keys it.
func (c *Chip) invalidateProfile() {
	c.active = nil
	c.activeKey = profileKey{}
}

// profileFor returns the condition-resident profile for a block under the
// current feature register, building and memoizing it on first use.
func (c *Chip) profileFor(b nand.BlockID, tempC float64) *vth.ConditionProfile {
	key := profileKey{cond: c.Condition(b, tempC), red: c.features.Reduction()}
	if c.active != nil && key == c.activeKey {
		return c.active
	}
	p, ok := c.profiles[key]
	if !ok {
		p = c.model.Profile(key.cond, key.red)
		c.profiles[key] = p
	}
	c.activeKey, c.active = key, p
	return p
}

// Geometry returns the chip's organization.
func (c *Chip) Geometry() nand.Geometry { return c.geom }

// Timing returns the chip's timing parameters.
func (c *Chip) Timing() nand.Timing { return c.timing }

// Model returns the underlying error model.
func (c *Chip) Model() *vth.Model { return c.model }

// LadderSteps returns the retry ladder's length — the largest step count any
// read of this chip can report (failed reads exhaust the ladder). Sizing a
// retry-step histogram to LadderSteps()+1 buckets therefore covers every
// possible outcome without mid-run growth.
func (c *Chip) LadderSteps() int { return c.model.Params().MaxLadderSteps }

// Index returns the chip's position in its fleet.
func (c *Chip) Index() int { return c.index }

// Block returns a pointer to the block's state for inspection or
// preconditioning. It panics on an out-of-range block, which indicates an
// addressing bug.
func (c *Chip) Block(b nand.BlockID) *BlockState {
	idx := b.Linear(c.geom)
	if idx < 0 || idx >= len(c.blocks) {
		panic(fmt.Sprintf("chip: block %+v out of range", b))
	}
	return &c.blocks[idx]
}

// SetCondition preconditions every block of the chip to the given P/E-cycle
// count and retention age and sets the chip's operating temperature — the
// accelerated-aging + thermal-chamber step of a characterization run.
// Temperature is part of the condition set/invalidate path: a
// temperature-only change drops the active profile exactly as an aging
// change does, so a later read can never execute under a profile computed
// for the previous ambient.
func (c *Chip) SetCondition(pec int, retentionMonths, tempC float64) {
	for i := range c.blocks {
		c.blocks[i] = BlockState{PEC: pec, RetentionMonths: retentionMonths}
	}
	c.tempC = tempC
	c.invalidateProfile()
}

// Temp returns the chip's resident operating temperature, as set by
// SetCondition.
func (c *Chip) Temp() float64 { return c.tempC }

// Condition returns the error-model condition for a block at the given
// operating temperature.
func (c *Chip) Condition(b nand.BlockID, tempC float64) vth.Condition {
	st := c.Block(b)
	return vth.Condition{PEC: st.PEC, RetentionMonths: st.RetentionMonths, TempC: tempC}
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
	if reg != c.features {
		c.invalidateProfile()
	}
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
	pt := c.geom.PageType(a.Page)
	if c.fastPath {
		return c.profileFor(a.BlockOf(), tempC).Read(c.pageID(a), pt)
	}
	return c.model.Read(c.pageID(a), c.Condition(a.BlockOf(), tempC), pt, c.features.Reduction())
}

// StepErrors returns the raw bit errors per 1 KiB observed at a specific
// retry step (0 = initial read) — the per-step RBER measurement the
// characterization platform performs (§4).
func (c *Chip) StepErrors(a nand.Address, tempC float64, step int) int {
	pt := c.geom.PageType(a.Page)
	if c.fastPath {
		return c.profileFor(a.BlockOf(), tempC).StepErrors(c.pageID(a), pt, step)
	}
	return c.model.StepErrors(c.pageID(a), c.Condition(a.BlockOf(), tempC), pt, step, c.features.Reduction())
}

// Program models programming a page: the block's retention age resets (the
// model tracks retention at block granularity, matching how the FTL
// allocates whole blocks before rewriting them). It returns tPROG.
func (c *Chip) Program(a nand.Address) sim.Time {
	st := c.Block(a.BlockOf())
	st.RetentionMonths = 0
	return c.timing.TProg
}

// Erase models a block erase: the block's P/E-cycle count increments and
// retention resets. It returns tBERS.
func (c *Chip) Erase(b nand.BlockID) sim.Time {
	st := c.Block(b)
	st.PEC++
	st.RetentionMonths = 0
	return c.timing.TBers
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
