package core

import "fmt"

// PSO models the state-of-the-art retry-step reduction technique the paper
// compares against in §7.3 (Shim et al., MICRO'19, "Process Similarity-aware
// Optimization"): the controller remembers the V_REF ladder position that a
// recent read-retry on pages with similar error characteristics ended at,
// and starts subsequent retry operations from that position instead of from
// the default V_REF.
//
// The externally visible behaviour the paper relies on is reproduced
// mechanistically: the step count collapses to |current − cached| plus a
// small mandatory fine-search sequence, so reads in a stable group converge
// to MinSteps (the paper: "every read still incurs at least three retry
// steps in an aged SSD") while the first read of a group, or a read after a
// large condition change, pays the full distance.
type PSO struct {
	// MinSteps is the irreducible number of retry steps when the cached
	// position is accurate (3 in the paper's measurement of [84]).
	MinSteps int
	cache    map[GroupKey]int
	hits     int
	misses   int
}

// GroupKey identifies a process-similarity group: pages on the same die
// whose blocks share wear and retention characteristics exhibit similar
// optimal V_REF values.
type GroupKey struct {
	Chip int
	Die  int
	// PECBucket and RetBucket coarsen the operating condition; blocks in
	// the same bucket are "process similar".
	PECBucket int
	RetBucket int
}

// NewPSO returns a PSO controller with the paper's 3-step floor.
func NewPSO() *PSO {
	return &PSO{MinSteps: 3, cache: make(map[GroupKey]int)}
}

// Group buckets a block's condition into its similarity group: 500-cycle
// P/E buckets and 3-month retention buckets.
func Group(chipIdx, die, pec int, retentionMonths float64) GroupKey {
	ret := int(retentionMonths / 3)
	if retentionMonths < 0 {
		ret = 0
	}
	return GroupKey{Chip: chipIdx, Die: die, PECBucket: pec / 500, RetBucket: ret}
}

// AdjustedSteps maps the page's true ladder position (the retry step count a
// cold read-retry would need) to the steps PSO actually performs, updating
// the group cache. Reads that need no retry (trueSteps == 0) bypass PSO
// entirely: no read failure occurs, so no V_REF reuse happens. A group hit
// pays MinSteps at least, even when the cold walk is shorter: a hit on a
// page that needs 1 or 2 steps performs 3.
func (p *PSO) AdjustedSteps(g GroupKey, trueSteps int) int {
	if trueSteps <= 0 {
		return 0
	}
	cached, ok := p.cache[g]
	p.cache[g] = trueSteps
	if !ok {
		p.misses++
		return trueSteps
	}
	p.hits++
	dist := trueSteps - cached
	if dist < 0 {
		dist = -dist
	}
	steps := dist + p.MinSteps
	if steps > trueSteps {
		// Cap the seeded walk at the cold ladder walk from the default
		// V_REF.
		steps = trueSteps
	}
	if steps < p.MinSteps {
		// The floor comes after the cap, so it wins below MinSteps true
		// steps and the seeded walk is then longer than the cold one. The
		// Figure 15 goldens are built with this order (ROADMAP 3(b)).
		steps = p.MinSteps
	}
	return steps
}

// Stats reports cache hits and misses, for experiment logging.
func (p *PSO) Stats() (hits, misses int) { return p.hits, p.misses }

// Reset clears the cached positions (e.g. after a power cycle).
func (p *PSO) Reset() {
	p.cache = make(map[GroupKey]int)
	p.hits, p.misses = 0, 0
}

// String summarizes the controller state.
func (p *PSO) String() string {
	return fmt.Sprintf("PSO{groups: %d, hits: %d, misses: %d}", len(p.cache), p.hits, p.misses)
}
