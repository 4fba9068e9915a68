package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"readretry/internal/core"
	"readretry/internal/ssd"
)

func TestGridCellAtDecodesCanonicalOrder(t *testing.T) {
	cfg := tinySweepConfig(7)
	cfg.Conditions = []Condition{{PEC: 1000, Months: 3}, {PEC: 2000, Months: 6}}
	variants := Figure14Variants()
	g, err := NewGrid(cfg, variants)
	if err != nil {
		t.Fatal(err)
	}
	if g.Total() != 2*2*5 || g.Stride() != 5 {
		t.Fatalf("Total = %d, Stride = %d", g.Total(), g.Stride())
	}
	// The decode must visit exactly the nested workload-major order the
	// serial loops produced.
	idx := 0
	for _, wl := range cfg.Workloads {
		for _, cond := range cfg.Conditions {
			for _, v := range variants {
				gw, gc, gv := g.CellAt(idx)
				if gw != wl || gc != cond || gv.Name != v.Name {
					t.Fatalf("CellAt(%d) = (%s, %v, %s), want (%s, %v, %s)",
						idx, gw, gc, gv.Name, wl, cond, v.Name)
				}
				idx++
			}
		}
	}
	if got, want := g.Label(0), "stg_0 2K/3mo Baseline"; want != got {
		// PEC 1000 renders as "1K"; build the expectation from the grid
		// itself to stay robust.
		wl, cond, v := g.CellAt(0)
		if got != wl+" "+cond.String()+" "+v.Name {
			t.Fatalf("Label(0) = %q", got)
		}
	}
}

// TestNewGridRejectsRepeatedAxisValues checks that a value listed twice on
// any axis is an error naming that value, not a grid whose cells run twice.
func TestNewGridRejectsRepeatedAxisValues(t *testing.T) {
	cases := []struct {
		name  string
		apply func(*Config)
		want  string
	}{
		{"workloads", func(c *Config) { c.Workloads = []string{"stg_0", "YCSB-C", "stg_0"} }, "stg_0"},
		{"temps", func(c *Config) { c.Temps = []float64{25, 85, 25} }, "25°C"},
		{"devices", func(c *Config) { c.Devices = []ssd.Device{ssd.DeviceTLC, ssd.DeviceQLC16, ssd.DeviceTLC} }, `"tlc"`},
		{"conditions", func(c *Config) {
			c.Conditions = []Condition{{PEC: 1000, Months: 3}, {PEC: 2000, Months: 6}, {PEC: 1000, Months: 3}}
		}, "1K/3mo"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinySweepConfig(7)
			tc.apply(&cfg)
			_, err := NewGrid(cfg, Figure14Variants())
			if err == nil {
				t.Fatal("NewGrid accepted a repeated axis value")
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "twice") {
				t.Errorf("error %q does not name the repeated value %s", err, tc.want)
			}
		})
	}
}

// TestNewGridChecksEveryCellConfig: the template is checked as each cell
// runs it, so ReducedRegularReads is refused beside a non-adaptive variant
// and accepted when every variant is adaptive, and a variant that turns on
// both PSO and history, two ladder-start policies, is refused.
func TestNewGridChecksEveryCellConfig(t *testing.T) {
	cfg := tinySweepConfig(7)
	if _, err := NewGrid(cfg, []Variant{{Name: "PSO+H", Scheme: core.PnAR2, PSO: true, History: true}}); err == nil {
		t.Error("a variant with both PSO and history accepted")
	}
	cfg.Base.ReducedRegularReads = true
	if _, err := NewGrid(cfg, Figure14Variants()); err == nil {
		t.Error("ReducedRegularReads accepted beside Baseline")
	}
	vs := Figure14Variants()
	if _, err := NewGrid(cfg, []Variant{vs[2], vs[3]}); err != nil {
		t.Errorf("ReducedRegularReads under AR2 and PnAR2: %v", err)
	}
}

// TestNewGridCapsCells: a grid above MaxCells is refused from the list
// lengths alone, before any axis is crossed.
func TestNewGridCapsCells(t *testing.T) {
	cfg := tinySweepConfig(7)
	cfg.Workloads = nil // all twelve
	cfg.Conditions = nil
	cfg.Temps = []float64{25, 55, 85}
	variants := make([]Variant, MaxCells/(12*10*3)+1)
	for i := range variants {
		variants[i] = Variant{Name: fmt.Sprintf("v%d", i)}
	}
	if _, err := NewGrid(cfg, variants); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("%d cells: got %v, want the cap's error", 12*10*3*len(variants), err)
	}
	if _, err := NewGrid(cfg, variants[:len(variants)-1]); err != nil {
		t.Fatalf("%d cells: %v", 12*10*3*(len(variants)-1), err)
	}
}

func TestRunCellsSubsetMatchesFullSweep(t *testing.T) {
	cfg := tinySweepConfig(7)
	full, err := RunSweep(context.Background(), cfg, Figure14Variants())
	if err != nil {
		t.Fatal(err)
	}
	// An arbitrary subset, deliberately out of ascending order.
	indices := []int{7, 0, 3, 9, 2}
	cells, err := RunCells(context.Background(), cfg, mustGrid(t, cfg, Figure14Variants()), indices)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(indices) {
		t.Fatalf("RunCells returned %d cells, want %d", len(cells), len(indices))
	}
	for i, idx := range indices {
		want := full.Cells[idx]
		want.Normalized = 0 // subsets are raw; normalization is a merge-time step
		if !reflect.DeepEqual(cells[i], want) {
			t.Fatalf("cell %d (grid idx %d) = %+v, want %+v", i, idx, cells[i], want)
		}
	}
}

func TestRunCellsRejectsOutOfRangeIndex(t *testing.T) {
	cfg := tinySweepConfig(7)
	for _, bad := range [][]int{{-1}, {10}, {0, 99}} {
		if _, err := RunCells(context.Background(), cfg, mustGrid(t, cfg, Figure14Variants()), bad); err == nil {
			t.Fatalf("RunCells accepted out-of-range indices %v", bad)
		}
	}
}

func TestNormalizeCellsMatchesEngineNormalization(t *testing.T) {
	cfg := tinySweepConfig(7)
	variants := Figure14Variants()
	full, err := RunSweep(context.Background(), cfg, variants)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the engine's normalization and reapply via the exported hook.
	raw := make([]Cell, len(full.Cells))
	copy(raw, full.Cells)
	for i := range raw {
		raw[i].Normalized = 0
	}
	if err := NormalizeCells(raw, variants); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(raw, full.Cells) {
		t.Fatal("NormalizeCells over the raw grid differs from the engine's stripe normalization")
	}

	// Misaligned input is refused rather than mis-striped.
	if err := NormalizeCells(raw[:len(raw)-1], variants); err == nil {
		t.Fatal("NormalizeCells accepted a cell count that does not divide into stripes")
	}
	if err := NormalizeCells(raw, nil); err == nil {
		t.Fatal("NormalizeCells accepted an empty variant roster")
	}
}

func TestConfigHashSensitivity(t *testing.T) {
	cfg := tinySweepConfig(7)
	variants := Figure14Variants()
	base, err := ConfigHash(cfg, mustGrid(t, cfg, variants))
	if err != nil {
		t.Fatal(err)
	}
	same, err := ConfigHash(cfg, mustGrid(t, cfg, Figure14Variants()))
	if err != nil {
		t.Fatal(err)
	}
	if base != same {
		t.Fatal("ConfigHash is not deterministic for equal configurations")
	}

	vary := func(name string, mutate func(*Config) []Variant) {
		c := cfg
		vs := mutate(&c)
		if vs == nil {
			vs = variants
		}
		h, err := ConfigHash(c, mustGrid(t, c, vs))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h == base {
			t.Errorf("%s: hash unchanged", name)
		}
	}
	vary("seed", func(c *Config) []Variant { c.Seed = 8; return nil })
	vary("requests", func(c *Config) []Variant { c.Requests = c.Requests + 1; return nil })
	vary("temps axis", func(c *Config) []Variant { c.Temps = []float64{25}; return nil })
	vary("device template", func(c *Config) []Variant { c.Base.TempC = 55; return nil })
	vary("workload roster", func(c *Config) []Variant { c.Workloads = c.Workloads[:1]; return nil })
	vary("variant roster", func(c *Config) []Variant { return variants[:3] })
	vary("variant rename", func(c *Config) []Variant {
		vs := append([]Variant{}, variants...)
		vs[1].Name = "renamed"
		return vs
	})
}

// mustGrid resolves cfg's grid, failing the test on an invalid sweep.
func mustGrid(t *testing.T, cfg Config, variants []Variant) *Grid {
	t.Helper()
	g, err := NewGrid(cfg, variants)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
