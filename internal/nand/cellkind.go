package nand

import (
	"fmt"

	"readretry/internal/sim"
)

// CellKind identifies a NAND cell technology by its bits per cell. The kind
// determines the whole cell-level geometry: 2^bits V_TH states, 2^bits − 1
// read offsets between them, and bits page kinds striped across each
// wordline, each sensing a Gray-coded subset of the read levels.
//
// The paper characterizes 3D TLC chips; TLC is the default everywhere and
// the other kinds exist so a different device is a config, not a fork.
type CellKind int

// Supported cell kinds. The numeric value is the bits per cell, so
// CellKind(Geometry.CellBits) is the kind of a validated geometry.
const (
	SLC CellKind = 1 // 2 states, 1 read offset
	MLC CellKind = 2 // 4 states, 3 read offsets
	TLC CellKind = 3 // 8 states, 7 read offsets (the paper's devices)
	QLC CellKind = 4 // 16 states, 15 read offsets
)

// readLevelTables holds, per cell kind, the read-voltage indices each page
// kind senses. These are Gray-coding facts about real devices, not derived
// data: the paper's TLC chips sense ⟨2, 3, 2⟩ levels for ⟨LSB, CSB, MSB⟩
// (footnote 14), which the binary-reflected Gray code would not produce.
// The QLC table uses the balanced ⟨4, 4, 4, 3⟩ coding common in 16-level
// parts. Every slice is shared and immutable; callers must not mutate.
var readLevelTables = [QLC + 1][][]int{
	SLC: {{0}},
	MLC: {{1}, {0, 2}},
	TLC: {{0, 4}, {1, 3, 5}, {2, 6}},
	QLC: {{0, 4, 8, 12}, {1, 5, 9, 13}, {2, 6, 10, 14}, {3, 7, 11}},
}

// Valid reports whether the kind is one of the supported cell technologies.
func (k CellKind) Valid() bool { return k >= SLC && k <= QLC }

// String returns the conventional technology abbreviation.
func (k CellKind) String() string {
	switch k {
	case SLC:
		return "SLC"
	case MLC:
		return "MLC"
	case TLC:
		return "TLC"
	case QLC:
		return "QLC"
	default:
		return fmt.Sprintf("CellKind(%d)", int(k))
	}
}

// Bits returns the bits stored per cell.
func (k CellKind) Bits() int { return int(k) }

// Levels returns the number of V_TH states (2^bits).
func (k CellKind) Levels() int { return 1 << k }

// ReadOffsets returns the number of read voltages between adjacent states
// (levels − 1): 7 for TLC, 15 for QLC.
func (k CellKind) ReadOffsets() int { return k.Levels() - 1 }

// PageKinds returns the number of page kinds striped across a wordline,
// equal to the bits per cell.
func (k CellKind) PageKinds() int { return int(k) }

// NSense returns the number of sensing operations needed to read a page of
// the given kind: the size of its Gray-coded read-level set.
func (k CellKind) NSense(pt PageType) int { return len(k.ReadLevels(pt)) }

// ReadLevels returns the read-voltage indices (0-based, between adjacent
// V_TH states) sensed when reading a page of the given kind. The returned
// slice is shared and immutable; callers must not mutate it.
func (k CellKind) ReadLevels(pt PageType) []int {
	table := readLevelTables[k]
	if int(pt) < 0 || int(pt) >= len(table) {
		// Out-of-range page types fall back to the last page kind, matching
		// the historical PageType.ReadLevels default arm.
		return table[len(table)-1]
	}
	return table[pt]
}

// MaxNSense returns the largest per-page sensing count of the kind — the
// kind's worst page (CSB's 3 sensings for TLC). The vth error-wall model is
// calibrated against this page kind.
func (k CellKind) MaxNSense() int {
	max := 0
	for _, levels := range readLevelTables[k] {
		if len(levels) > max {
			max = len(levels)
		}
	}
	return max
}

// WorstPage returns the first page kind achieving MaxNSense sensings (CSB
// for TLC) — the page the retry ladder and RPT sizing are anchored to.
func (k CellKind) WorstPage() PageType {
	worst := k.MaxNSense()
	for pt, levels := range readLevelTables[k] {
		if len(levels) == worst {
			return PageType(pt)
		}
	}
	return 0
}

// CellKind returns the cell technology of the geometry. Only meaningful on
// a validated geometry (Validate restricts CellBits to supported kinds).
func (g Geometry) CellKind() CellKind { return CellKind(g.CellBits) }

// TRKind returns the page-sensing latency for a page of the given cell kind
// under the reduction (Equation 1 with the kind's sensing count).
func (t Timing) TRKind(k CellKind, pt PageType, r Reduction) sim.Time {
	return sim.Time(k.NSense(pt)) * t.SensePeriod(r)
}
