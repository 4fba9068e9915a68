package rpt

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"readretry/internal/nand"
	"readretry/internal/vth"
)

func testModel() *vth.Model { return vth.NewModel(vth.DefaultParams(), 1) }

func profiled(t *testing.T) *Table {
	t.Helper()
	table, err := Profile(testModel(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.PECBounds = []int{500, 250}
	if bad.Validate() == nil {
		t.Error("non-increasing PEC bounds should fail")
	}
	bad = DefaultConfig()
	bad.RetBounds = nil
	if bad.Validate() == nil {
		t.Error("empty retention bounds should fail")
	}
	bad = DefaultConfig()
	bad.SafetyMarginBits = -1
	if bad.Validate() == nil {
		t.Error("negative margin should fail")
	}
	bad = DefaultConfig()
	bad.MaxLevel = nand.MaxFeatureLevel + 1
	if bad.Validate() == nil {
		t.Error("over-range MaxLevel should fail")
	}
}

func TestFigure11ReductionRange(t *testing.T) {
	// Figure 11: with the 14-bit margin, the selected tPRE reduction spans
	// 40 % (worst condition) to 54 % (best) — register levels 6 to 8.
	table := profiled(t)
	if got := table.MinLevel(); got != 6 {
		t.Errorf("min level = %d (%.0f%%), paper reports 40%%",
			got, nand.LevelFraction(got)*100)
	}
	if got := table.MaxLevel(); got != 8 {
		t.Errorf("max level = %d (%.0f%%), paper reports 54%%",
			got, nand.LevelFraction(got)*100)
	}
}

func TestWorstConditionPicksFortyPercent(t *testing.T) {
	table := profiled(t)
	if got := table.Lookup(2000, 12); got != 6 {
		t.Errorf("level at (2K, 12mo) = %d, want 6 (40%%)", got)
	}
	// And the freshest bucket allows the maximum.
	if got := table.Lookup(0, 0.5); got != 8 {
		t.Errorf("level at (0, 2wk) = %d, want 8 (54%%)", got)
	}
}

func TestLevelsMonotoneInCondition(t *testing.T) {
	// Worse conditions never allow more reduction.
	table := profiled(t)
	for i, row := range table.Levels {
		for j := range row {
			if j > 0 && row[j] > row[j-1] {
				t.Errorf("row %d: level rises with retention (%d -> %d)", i, row[j-1], row[j])
			}
			if i > 0 && row[j] > table.Levels[i-1][j] {
				t.Errorf("col %d: level rises with PEC", j)
			}
		}
	}
}

func TestSafeLevelGuaranteesMargin(t *testing.T) {
	// The profiled level must leave SafetyMarginBits of ECC capability at
	// the profiling temperature, and still decode at 30 °C (the margin's
	// purpose, §5.2.3).
	m := testModel()
	cfg := DefaultConfig()
	table := profiled(t)
	for _, pec := range cfg.PECBounds {
		for _, ret := range cfg.RetBounds {
			level := table.Lookup(pec, ret)
			red := nand.Reduction{Pre: nand.LevelFraction(level)}
			hot := vth.Condition{PEC: pec, RetentionMonths: ret, TempC: 85}
			if got := m.MaxFloorErrors(hot, nand.CSB) + m.MaxTimingPenalty(hot, red); got > m.Capability()-cfg.SafetyMarginBits {
				t.Errorf("(%d, %gmo) level %d leaves only %d margin bits",
					pec, ret, level, m.Capability()-got)
			}
			cold := vth.Condition{PEC: pec, RetentionMonths: ret, TempC: 30}
			if got := m.MaxFloorErrors(cold, nand.CSB) + m.MaxTimingPenalty(cold, red); got > m.Capability() {
				t.Errorf("(%d, %gmo) level %d fails at 30°C: %d errors > capability",
					pec, ret, level, got)
			}
		}
	}
}

func TestSafeLevelZeroMarginAllowsMore(t *testing.T) {
	m := testModel()
	cond := vth.Condition{PEC: 2000, RetentionMonths: 12, TempC: 85}
	conservative := SafeLevel(m, cond, 14, nand.MaxFeatureLevel)
	aggressive := SafeLevel(m, cond, 0, nand.MaxFeatureLevel)
	if aggressive <= conservative {
		t.Errorf("zero margin (%d) should allow more reduction than 14-bit margin (%d)",
			aggressive, conservative)
	}
}

func TestLookupClampsBeyondGrid(t *testing.T) {
	table := profiled(t)
	beyond := table.Lookup(9999, 99)
	last := int(table.Levels[len(table.Levels)-1][len(table.RetBounds)-1])
	if beyond != last {
		t.Errorf("beyond-grid lookup = %d, want clamp to %d", beyond, last)
	}
}

func TestReductionMatchesLookup(t *testing.T) {
	table := profiled(t)
	r := table.Reduction(1000, 6)
	want := nand.LevelFraction(table.Lookup(1000, 6))
	if r.Pre != want || r.Eval != 0 || r.Disch != 0 {
		t.Errorf("Reduction = %+v, want Pre=%v only (§5.2.2: tPRE-only policy)", r, want)
	}
}

func TestBinaryRoundTripAndSize(t *testing.T) {
	table := profiled(t)
	data, err := table.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// §6.2: "with 36 (PEC, t_RET) combinations, we estimate the table size
	// to be only 144 bytes per chip."
	if len(data) > 144 {
		t.Errorf("binary table = %d bytes, paper budget is 144", len(data))
	}
	var back Table
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if back.Lookup(2000, 12) != table.Lookup(2000, 12) ||
		back.Lookup(0, 1) != table.Lookup(0, 1) {
		t.Error("binary round trip changed lookups")
	}
	if len(back.PECBounds) != len(table.PECBounds) || len(back.RetBounds) != len(table.RetBounds) {
		t.Error("binary round trip lost bounds")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	var tab Table
	if err := tab.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Error("truncated input should fail")
	}
	if err := tab.UnmarshalBinary([]byte{0, 0, 0, 0, 6, 6}); err == nil {
		t.Error("bad magic should fail")
	}
}

// TestBinaryIsStrict: every proper prefix of the 66-byte default table,
// and the table with a byte appended, is refused rather than decoded with
// zero levels or the extra bytes ignored.
func TestBinaryIsStrict(t *testing.T) {
	data, err := profiled(t).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 66 {
		t.Fatalf("default table = %d bytes, want 66 (6 header + 24 bounds + 36 levels)", len(data))
	}
	for n := 0; n < len(data); n++ {
		var tab Table
		if err := tab.UnmarshalBinary(data[:n]); err == nil {
			t.Errorf("a table cut to %d of %d bytes decoded", n, len(data))
		}
	}
	var tab Table
	if err := tab.UnmarshalBinary(append(data, 0)); err == nil {
		t.Error("a trailing byte was ignored")
	}
}

// TestBinaryEncodesBoundsExactly: a table decodes with exactly the
// buckets it was encoded with, or does not encode at all.
func TestBinaryEncodesBoundsExactly(t *testing.T) {
	exact := &Table{
		PECBounds: []int{0, 65535},
		RetBounds: []float64{0.3, 6553.5},
		Levels:    [][]uint8{{1, 2}, {3, 4}},
	}
	data, err := exact.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, exact) {
		t.Errorf("round trip = %+v, want %+v", back, *exact)
	}
	for name, mutate := range map[string]func(*Table){
		"retention 0.25":   func(t *Table) { t.RetBounds[0] = 0.25 },
		"retention 6553.6": func(t *Table) { t.RetBounds[1] = 6553.6 },
		"negative months":  func(t *Table) { t.RetBounds[0] = -1 },
		"NaN months":       func(t *Table) { t.RetBounds[0] = math.NaN() },
		"P/E 65536":        func(t *Table) { t.PECBounds[1] = 65536 },
		"negative P/E":     func(t *Table) { t.PECBounds[0] = -1 },
		"256 P/E buckets": func(t *Table) {
			t.PECBounds = make([]int, 256)
			t.Levels = make([][]uint8, 256)
			for i := range t.Levels {
				t.Levels[i] = make([]uint8, 2)
			}
		},
		"missing row": func(t *Table) { t.Levels = t.Levels[:1] },
		"ragged row":  func(t *Table) { t.Levels[1] = t.Levels[1][:1] },
	} {
		bad := &Table{
			PECBounds: append([]int(nil), exact.PECBounds...),
			RetBounds: append([]float64(nil), exact.RetBounds...),
			Levels:    [][]uint8{{1, 2}, {3, 4}},
		}
		mutate(bad)
		if _, err := bad.MarshalBinary(); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	table := profiled(t)
	data, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Lookup(1500, 9) != table.Lookup(1500, 9) {
		t.Error("JSON round trip changed lookups")
	}
}

func TestProfileRejectsBadConfig(t *testing.T) {
	bad := DefaultConfig()
	bad.PECBounds = nil
	if _, err := Profile(testModel(), bad); err == nil {
		t.Error("expected error for invalid config")
	}
}
