package nand

import (
	"testing"

	"readretry/internal/sim"
)

var allKinds = []CellKind{SLC, MLC, TLC, QLC}

func TestCellKindBasics(t *testing.T) {
	wantLevels := map[CellKind]int{SLC: 2, MLC: 4, TLC: 8, QLC: 16}
	for _, k := range allKinds {
		if !k.Valid() {
			t.Errorf("%v should be valid", k)
		}
		if k.Levels() != wantLevels[k] {
			t.Errorf("%v levels = %d, want %d", k, k.Levels(), wantLevels[k])
		}
		if k.ReadOffsets() != k.Levels()-1 {
			t.Errorf("%v offsets = %d, want levels-1", k, k.ReadOffsets())
		}
		if k.PageKinds() != k.Bits() {
			t.Errorf("%v page kinds = %d, want %d", k, k.PageKinds(), k.Bits())
		}
	}
	for _, k := range []CellKind{0, -1, 5} {
		if k.Valid() {
			t.Errorf("CellKind(%d) should be invalid", int(k))
		}
	}
	if TLC.String() != "TLC" || QLC.String() != "QLC" || SLC.String() != "SLC" || MLC.String() != "MLC" {
		t.Error("CellKind String wrong")
	}
	if CellKind(7).String() != "CellKind(7)" {
		t.Error("unknown CellKind String wrong")
	}
}

func TestReadLevelsPartitionPerKind(t *testing.T) {
	// Every kind's Gray coding must cover each of its ReadOffsets read
	// voltages exactly once across its page kinds.
	for _, k := range allKinds {
		seen := map[int]PageType{}
		for pt := PageType(0); int(pt) < k.PageKinds(); pt++ {
			levels := k.ReadLevels(pt)
			if len(levels) != k.NSense(pt) {
				t.Errorf("%v/%d: %d levels but NSense=%d", k, pt, len(levels), k.NSense(pt))
			}
			for _, l := range levels {
				if prev, dup := seen[l]; dup {
					t.Errorf("%v: level %d claimed by pages %d and %d", k, l, prev, pt)
				}
				seen[l] = pt
			}
		}
		for l := 0; l < k.ReadOffsets(); l++ {
			if _, ok := seen[l]; !ok {
				t.Errorf("%v: read level %d not covered", k, l)
			}
		}
	}
}

func TestReadLevelsSharedImmutable(t *testing.T) {
	// ReadLevels must return the shared table, not a fresh allocation:
	// same backing array on every call and zero allocations per call.
	for _, k := range allKinds {
		for pt := PageType(0); int(pt) < k.PageKinds(); pt++ {
			a, b := k.ReadLevels(pt), k.ReadLevels(pt)
			if &a[0] != &b[0] {
				t.Errorf("%v/%v: ReadLevels allocates a fresh slice per call", k, pt)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = QLC.ReadLevels(3) }); n != 0 {
		t.Errorf("CellKind.ReadLevels allocates %.0f per call, want 0", n)
	}
}

func TestTLCCompatWrappers(t *testing.T) {
	// The historical PageType.NSense is a TLC view of the kind tables.
	for _, pt := range []PageType{LSB, CSB, MSB} {
		if pt.NSense() != TLC.NSense(pt) {
			t.Errorf("%v: NSense wrapper diverges from TLC table", pt)
		}
	}
	// The paper's ⟨2, 3, 2⟩ sensing counts survive the refactor.
	if TLC.NSense(LSB) != 2 || TLC.NSense(CSB) != 3 || TLC.NSense(MSB) != 2 {
		t.Error("TLC NSense table wrong")
	}
	// Out-of-range page types keep the historical default arm (MSB set).
	a, b := TLC.ReadLevels(PageType(9)), TLC.ReadLevels(MSB)
	if &a[0] != &b[0] {
		t.Error("out-of-range PageType should fall back to the last page kind")
	}
}

func TestMaxNSenseAndWorstPage(t *testing.T) {
	cases := []struct {
		k     CellKind
		max   int
		worst PageType
	}{
		{SLC, 1, 0},
		{MLC, 2, 1},
		{TLC, 3, CSB},
		{QLC, 4, 0},
	}
	for _, c := range cases {
		if got := c.k.MaxNSense(); got != c.max {
			t.Errorf("%v MaxNSense = %d, want %d", c.k, got, c.max)
		}
		if got := c.k.WorstPage(); got != c.worst {
			t.Errorf("%v WorstPage = %v, want %v", c.k, got, c.worst)
		}
	}
}

func TestTRKindMatchesTLC(t *testing.T) {
	tm := DefaultTiming()
	for _, pt := range []PageType{LSB, CSB, MSB} {
		for _, r := range []Reduction{{}, {Pre: 0.4}, {Disch: 0.2}} {
			if tm.TRKind(TLC, pt, r) != tm.TR(pt, r) {
				t.Errorf("TRKind(TLC, %v, %+v) diverges from TR", pt, r)
			}
		}
	}
}

func TestTRKindQLC(t *testing.T) {
	tm := DefaultTiming()
	// One sensing = 39 µs; QLC senses ⟨4, 4, 4, 3⟩ per page kind.
	wants := []sim.Time{156, 156, 156, 117}
	for pt, want := range wants {
		if got := tm.TRKind(QLC, PageType(pt), Reduction{}); got != want*sim.Microsecond {
			t.Errorf("QLC page %d tR = %v, want %dus", pt, got, want)
		}
	}
}

func TestGeometryValidateNonTLC(t *testing.T) {
	// Supported kinds validate whenever PagesPerBlock divides evenly.
	for _, bits := range []int{1, 2, 3, 4} {
		g := DefaultGeometry()
		g.CellBits = bits
		g.PagesPerBlock = 576 // divisible by 1, 2, 3, and 4
		if err := g.Validate(); err != nil {
			t.Errorf("CellBits=%d should validate: %v", bits, err)
		}
		if g.CellKind() != CellKind(bits) {
			t.Errorf("CellKind() = %v, want %v", g.CellKind(), CellKind(bits))
		}
	}
	// Unsupported bit counts are rejected even when divisible.
	g := DefaultGeometry()
	g.CellBits = 5
	g.PagesPerBlock = 580
	if g.Validate() == nil {
		t.Error("CellBits=5 should be rejected as unsupported")
	}
	// Divisibility is checked against the actual CellBits, not TLC's 3.
	g = DefaultGeometry()
	g.CellBits = 4
	g.PagesPerBlock = 578 // divisible by neither 3 nor 4... but 578%2=0
	if g.Validate() == nil {
		t.Error("PagesPerBlock=578 should be rejected for CellBits=4")
	}
	g.PagesPerBlock = 579 // divisible by 3, not by 4
	if g.Validate() == nil {
		t.Error("PagesPerBlock=579 should be rejected for CellBits=4")
	}
}

func TestPageStripingNonTLC(t *testing.T) {
	// Pages stripe across wordlines in page-kind order for every CellBits.
	for _, bits := range []int{1, 2, 4} {
		g := DefaultGeometry()
		g.CellBits = bits
		g.PagesPerBlock = 576
		for p := 0; p < 3*bits; p++ {
			if got := g.PageType(p); got != PageType(p%bits) {
				t.Errorf("CellBits=%d: PageType(%d) = %v, want %v", bits, p, got, PageType(p%bits))
			}
		}
		// The last page of the block is the last wordline's last kind.
		last := g.PagesPerBlock - 1
		if g.PageType(last) != PageType(bits-1) {
			t.Errorf("CellBits=%d: last page maps to kind %v", bits, g.PageType(last))
		}
	}
}
