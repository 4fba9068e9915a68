// Package rpt implements AR²'s Read-timing Parameter Table (§6.2): the
// per-chip table, built by offline profiling, that maps a block's
// (P/E-cycle count, retention age) to the largest safely usable tPRE
// reduction. At runtime the SSD controller queries the table once per
// read-retry operation and programs the result through SET FEATURE.
//
// Profiling follows §5.2.3: the table is built at the 85 °C reference
// with a safety margin (14 bits by default — 7 for temperature-induced
// errors and 7 for outlier pages) subtracted from the ECC capability, so
// that the final retry step always retains a positive ECC-capability margin
// across the whole operating envelope.
package rpt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"readretry/internal/nand"
	"readretry/internal/vth"
)

// Config controls table profiling.
type Config struct {
	// PECBounds are the upper bounds (inclusive) of the P/E-cycle buckets.
	PECBounds []int
	// RetBounds are the upper bounds (inclusive) of the retention-age
	// buckets, in months.
	RetBounds []float64
	// SafetyMarginBits is subtracted from the ECC capability during
	// profiling: 7 bits for temperature-induced errors plus 7 bits for
	// outlier pages (§5.2.3).
	SafetyMarginBits int
	// ProfileTempC is the temperature profiling is performed at (85 °C,
	// the reference; colder operation is covered by the margin).
	ProfileTempC float64
	// MaxLevel caps the tPRE register level the profiler may select.
	MaxLevel int
}

// DefaultConfig matches the paper: six P/E buckets to the 2K-cycle
// characterization limit, six retention buckets to one year, and the
// 14-bit margin. 36 entries keep the table at Figure 13's "144 bytes per
// chip" scale.
func DefaultConfig() Config {
	return Config{
		PECBounds:        []int{250, 500, 1000, 1500, 1750, 2000},
		RetBounds:        []float64{1, 2, 3, 6, 9, 12},
		SafetyMarginBits: 14,
		ProfileTempC:     85,
		MaxLevel:         nand.MaxFeatureLevel,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.PECBounds) == 0 || len(c.RetBounds) == 0 {
		return fmt.Errorf("rpt: empty bucket bounds")
	}
	for i := 1; i < len(c.PECBounds); i++ {
		if c.PECBounds[i] <= c.PECBounds[i-1] {
			return fmt.Errorf("rpt: PEC bounds not increasing at %d", i)
		}
	}
	for i := 1; i < len(c.RetBounds); i++ {
		if c.RetBounds[i] <= c.RetBounds[i-1] {
			return fmt.Errorf("rpt: retention bounds not increasing at %d", i)
		}
	}
	if c.SafetyMarginBits < 0 {
		return fmt.Errorf("rpt: negative safety margin")
	}
	if c.MaxLevel < 0 || c.MaxLevel > nand.MaxFeatureLevel {
		return fmt.Errorf("rpt: MaxLevel %d outside register range", c.MaxLevel)
	}
	return nil
}

// Table is the profiled Read-timing Parameter Table.
type Table struct {
	PECBounds []int     `json:"pecBounds"`
	RetBounds []float64 `json:"retBounds"`
	// Levels[i][j] is the tPRE reduction register level for PEC bucket i
	// and retention bucket j.
	Levels [][]uint8 `json:"levels"`
}

// SafeLevel returns the largest tPRE register level whose worst-page error
// count — final-step floor plus timing penalty plus the safety margin —
// stays within the ECC capability under the condition. This is the
// quantity Figure 11 plots (as a reduction percentage) per condition.
func SafeLevel(m *vth.Model, cond vth.Condition, marginBits, maxLevel int) int {
	budget := m.Capability() - marginBits
	floor := m.MaxFloorErrors(cond, m.Kind().WorstPage())
	level := 0
	for l := 1; l <= maxLevel; l++ {
		r := nand.Reduction{Pre: nand.LevelFraction(l)}
		if floor+m.MaxTimingPenalty(cond, r) <= budget {
			level = l
		} else {
			break
		}
	}
	return level
}

// Profile builds the table for a chip population described by the model:
// each bucket is profiled at its upper bounds (the most error-prone
// condition it covers), making every entry conservative for the whole
// bucket.
func Profile(m *vth.Model, cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		PECBounds: append([]int(nil), cfg.PECBounds...),
		RetBounds: append([]float64(nil), cfg.RetBounds...),
	}
	for _, pec := range cfg.PECBounds {
		row := make([]uint8, 0, len(cfg.RetBounds))
		for _, ret := range cfg.RetBounds {
			cond := vth.Condition{PEC: pec, RetentionMonths: ret, TempC: cfg.ProfileTempC}
			level := SafeLevel(m, cond, cfg.SafetyMarginBits, cfg.MaxLevel)
			row = append(row, uint8(level))
		}
		t.Levels = append(t.Levels, row)
	}
	return t, nil
}

// Lookup returns the tPRE register level for a block's current condition.
// Conditions beyond the profiled grid clamp to the most worn bucket, whose
// entry is the most conservative.
func (t *Table) Lookup(pec int, retentionMonths float64) int {
	i := len(t.PECBounds) - 1
	for idx, bound := range t.PECBounds {
		if pec <= bound {
			i = idx
			break
		}
	}
	j := len(t.RetBounds) - 1
	for idx, bound := range t.RetBounds {
		if retentionMonths <= bound {
			j = idx
			break
		}
	}
	return int(t.Levels[i][j])
}

// Reduction returns the nand.Reduction for a block's condition — the value
// AR² programs via SET FEATURE.
func (t *Table) Reduction(pec int, retentionMonths float64) nand.Reduction {
	return nand.Reduction{Pre: nand.LevelFraction(t.Lookup(pec, retentionMonths))}
}

// MinLevel and MaxLevel return the extreme levels stored in the table
// (Figure 11's "min. reduction = 40 %, max. reduction = 54 %").
func (t *Table) MinLevel() int {
	min := math.MaxInt
	for _, row := range t.Levels {
		for _, l := range row {
			if int(l) < min {
				min = int(l)
			}
		}
	}
	return min
}

// MaxLevel returns the largest level stored in the table.
func (t *Table) MaxLevel() int {
	max := 0
	for _, row := range t.Levels {
		for _, l := range row {
			if int(l) > max {
				max = int(l)
			}
		}
	}
	return max
}

const binaryMagic = uint32(0x52505431) // "RPT1"

// MarshalBinary serializes the table in the compact fixed-layout form an
// SSD would store in a reserved flash page (§6.2 estimates 144 bytes per
// chip for 36 entries; this format meets that budget): the magic, the two
// bucket counts as bytes, the P/E bounds as uint16s, the retention bounds
// as uint16 tenths of a month, then the levels row by row. A table the
// layout cannot carry exactly is an error, not a table that decodes with
// other buckets: over 255 buckets on an axis, a P/E bound outside
// [0, 65535], a retention bound that is not a whole number of tenths
// within [0, 6553.5], or a level grid of another shape.
func (t *Table) MarshalBinary() ([]byte, error) {
	np, nr := len(t.PECBounds), len(t.RetBounds)
	if np > math.MaxUint8 || nr > math.MaxUint8 || len(t.Levels) != np {
		return nil, fmt.Errorf("rpt: %d×%d buckets with %d level rows do not fit the binary form", np, nr, len(t.Levels))
	}
	buf := append(binary.LittleEndian.AppendUint32(nil, binaryMagic), uint8(np), uint8(nr))
	for _, b := range t.PECBounds {
		if b < 0 || b > math.MaxUint16 {
			return nil, fmt.Errorf("rpt: P/E bound %d outside the binary form's [0, 65535]", b)
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(b))
	}
	for _, b := range t.RetBounds {
		tenths := math.Round(b * 10)
		if !(tenths >= 0 && tenths <= math.MaxUint16) || tenths/10 != b { //lint:floateq the bound must decode to exactly itself
			return nil, fmt.Errorf("rpt: retention bound %g months is not a whole number of tenths within [0, 6553.5]", b)
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(tenths))
	}
	for _, row := range t.Levels {
		if len(row) != nr {
			return nil, fmt.Errorf("rpt: ragged level row")
		}
		buf = append(buf, row...)
	}
	return buf, nil
}

// UnmarshalBinary parses MarshalBinary's format. The header fixes the
// table's length, so input cut short or carrying trailing bytes is an
// error, and t is left unchanged.
func (t *Table) UnmarshalBinary(data []byte) error {
	if len(data) < 6 {
		return fmt.Errorf("rpt: truncated table: %d bytes", len(data))
	}
	if magic := binary.LittleEndian.Uint32(data); magic != binaryMagic {
		return fmt.Errorf("rpt: bad magic %#x", magic)
	}
	np, nr := int(data[4]), int(data[5])
	if want := 6 + 2*(np+nr) + np*nr; len(data) != want {
		return fmt.Errorf("rpt: table is %d bytes, its header describes %d", len(data), want)
	}
	out := Table{PECBounds: make([]int, np), RetBounds: make([]float64, nr), Levels: make([][]uint8, np)}
	for i := range out.PECBounds {
		out.PECBounds[i] = int(binary.LittleEndian.Uint16(data[6+2*i:]))
	}
	for i := range out.RetBounds {
		out.RetBounds[i] = float64(binary.LittleEndian.Uint16(data[6+2*(np+i):])) / 10
	}
	levels := data[6+2*(np+nr):]
	for i := range out.Levels {
		out.Levels[i] = append([]uint8(nil), levels[i*nr:(i+1)*nr]...)
	}
	*t = out
	return nil
}

// MarshalJSON/UnmarshalJSON use the natural field encoding; declared
// explicitly so the binary and JSON forms stay independent.
func (t *Table) MarshalJSON() ([]byte, error) {
	type alias Table
	return json.Marshal((*alias)(t))
}

// UnmarshalJSON parses the JSON form.
func (t *Table) UnmarshalJSON(data []byte) error {
	type alias Table
	return json.Unmarshal(data, (*alias)(t))
}
