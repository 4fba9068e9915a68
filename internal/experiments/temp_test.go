package experiments

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"readretry/internal/experiments/cellcache"
)

func TestCrossTempsExpansion(t *testing.T) {
	conds := []Condition{{PEC: 1000, Months: 3}, {PEC: 2000, Months: 6}}
	got := CrossTemps(conds, []float64{25, 85})
	want := []Condition{
		{PEC: 1000, Months: 3, TempC: 25}, {PEC: 1000, Months: 3, TempC: 85},
		{PEC: 2000, Months: 6, TempC: 25}, {PEC: 2000, Months: 6, TempC: 85},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CrossTemps = %+v, want %+v", got, want)
	}
	// No axis: the grid passes through untouched (same backing array is
	// fine; the engine treats conditions as read-only).
	if out := CrossTemps(conds, nil); !reflect.DeepEqual(out, conds) {
		t.Fatalf("CrossTemps with no temps = %+v", out)
	}
}

func TestConditionStringTemperatureSuffix(t *testing.T) {
	for _, tc := range []struct {
		cond Condition
		want string
	}{
		{Condition{PEC: 2000, Months: 6}, "2K/6mo"},
		{Condition{PEC: 2000, Months: 6, TempC: 85}, "2K/6mo/85C"},
		{Condition{PEC: 500, Months: 1, TempC: 25}, "0.5K/1mo/25C"},
		{Condition{PEC: 1000, Months: 0.5, TempC: -20}, "1K/0.5mo/-20C"},
		{Condition{PEC: 999, Months: 12, TempC: 62.5}, "0.999K/12mo/62.5C"},
	} {
		if got := tc.cond.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.cond, got, tc.want)
		}
	}
}

// TestConditionStringInjectiveOverTempGrid walks the full default grid
// crossed with a temperature axis — plus the %gK collision class that bit
// PR 2, now with temperature variants — and checks every label is unique.
func TestConditionStringInjectiveOverTempGrid(t *testing.T) {
	base := DefaultConfig().Conditions
	grid := append([]Condition{}, base...) // sentinel (device-default) rows
	grid = append(grid, CrossTemps(base, []float64{25, 55, 85})...)
	// The historical collision class: PECs that integer division used to
	// collapse, and fractional months/temps that could bleed into each
	// other's fields if the separators were ever dropped.
	tricky := []Condition{
		{PEC: 500, Months: 1}, {PEC: 999, Months: 1}, {PEC: 1500, Months: 3},
		{PEC: 500, Months: 1, TempC: 25}, {PEC: 999, Months: 1, TempC: 25},
		{PEC: 1000, Months: 2.5, TempC: 55}, {PEC: 1000, Months: 25, TempC: 5.5},
		{PEC: 1000, Months: 0, TempC: 125}, {PEC: 1000, Months: 0.125, TempC: 25},
	}
	grid = append(grid, tricky...)
	seen := map[string]Condition{}
	for _, c := range grid {
		label := c.String()
		if prev, ok := seen[label]; ok {
			t.Fatalf("label %q produced by both %+v and %+v", label, prev, c)
		}
		seen[label] = c
	}
}

// TestConditionValidate: a condition is physically meaningful
// only if the device configuration its cells run is, so NewGrid checks
// each one through ssd.Config.Validate.
func TestConditionValidate(t *testing.T) {
	valid := []Condition{
		{PEC: 0, Months: 0},
		{PEC: 2000, Months: 12},
		{PEC: 1000, Months: 3, TempC: 25},
		{PEC: 1000, Months: 3, TempC: -40},
		{PEC: 1000, Months: 3, TempC: 125},
	}
	for _, c := range valid {
		if err := checkCondition(c); err != nil {
			t.Errorf("%+v: unexpected error %v", c, err)
		}
	}
	invalid := []Condition{
		{PEC: -1, Months: 0},
		{PEC: 1000, Months: -5}, // vth silently accepts this; the sweep must not
		{PEC: 1000, Months: math.NaN()},
		{PEC: 1000, Months: math.Inf(1)},
		{PEC: 1000, Months: 3, TempC: -41},
		{PEC: 1000, Months: 3, TempC: 200},
		{PEC: 1000, Months: 3, TempC: math.NaN()},
	}
	for _, c := range invalid {
		if err := checkCondition(c); err == nil {
			t.Errorf("%+v: expected a validation error", c)
		}
	}
}

// checkCondition builds the grid of the one condition c.
func checkCondition(c Condition) error {
	cfg := tinySweepConfig(7)
	cfg.Conditions = []Condition{c}
	_, err := NewGrid(cfg, Figure14Variants())
	return err
}

// TestSweepRejectsInvalidConditionsBeforeSimulating is the regression test
// for the upfront grid validation: physically meaningless conditions used
// to flow straight into the vth model (which takes them silently) and burn
// grid time; now they fail before any cell runs.
func TestSweepRejectsInvalidConditionsBeforeSimulating(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"negative PEC":       func(c *Config) { c.Conditions = []Condition{{PEC: -1000, Months: 3}} },
		"negative retention": func(c *Config) { c.Conditions = []Condition{{PEC: 1000, Months: -5}} },
		"NaN retention":      func(c *Config) { c.Conditions = []Condition{{PEC: 1000, Months: math.NaN()}} },
		"temp below range":   func(c *Config) { c.Conditions = []Condition{{PEC: 1000, Months: 3, TempC: -100}} },
		"temp above range":   func(c *Config) { c.Temps = []float64{500} },
		"zero temp axis":     func(c *Config) { c.Temps = []float64{25, 0} },
		"pinned TempC crossed with Temps": func(c *Config) {
			c.Conditions = []Condition{{PEC: 1000, Months: 3, TempC: 55}}
			c.Temps = []float64{25, 85}
		},
	} {
		cfg := tinySweepConfig(7)
		mutate(&cfg)
		simulated := false
		cfg.simHook = func() { simulated = true }
		progressed := false
		cfg.Progress = func(done, total int) { progressed = true }
		if _, err := RunSweep(context.Background(), cfg, Figure14Variants()); err == nil {
			t.Errorf("%s: expected an error", name)
		}
		if simulated || progressed {
			t.Errorf("%s: sweep spent simulation time on an invalid grid", name)
		}
	}
}

// TestLegacySinkRejectsTemperatureCells: attaching the 2-D CSV sink to a
// 3-D grid must abort loudly instead of silently dropping the temp_c
// column (which would emit indistinguishable rows and break byte-identity
// with the buffered encoder).
func TestLegacySinkRejectsTemperatureCells(t *testing.T) {
	cfg := tinySweepConfig(7)
	var buf bytes.Buffer
	sink, err := NewCSVSinkFor(cfg, &buf) // wrong: built before the axis
	cfg.Temps = []float64{25}
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sink = sink
	if _, err := RunSweep(context.Background(), cfg, Figure14Variants()); err == nil ||
		!strings.Contains(err.Error(), "NewCSVSinkFor") {
		t.Fatalf("err = %v, want a schema-mismatch error pointing at NewCSVSinkFor", err)
	}
}

// TestTemperaturelessCSVSchemaUnchanged pins the 2-D schema: a grid with no
// explicit temperatures must keep its historical header and row shape,
// bit-for-bit, through both encoders.
func TestTemperaturelessCSVSchemaUnchanged(t *testing.T) {
	cfg := tinySweepConfig(7)
	var streamed bytes.Buffer
	sink, err := NewCSVSinkFor(cfg, &streamed) // schema auto-detects: no axis
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sink = sink
	res, err := RunSweep(context.Background(), cfg, Figure14Variants())
	if err != nil {
		t.Fatal(err)
	}
	var buffered bytes.Buffer
	if err := res.WriteCSV(&buffered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), buffered.Bytes()) {
		t.Fatal("streamed CSV differs from buffered for a temperature-less grid")
	}
	header := strings.SplitN(streamed.String(), "\n", 2)[0]
	if header != "workload,pec,months,config,mean_us,mean_read_us,p99_read_us,normalized,retry_steps" {
		t.Fatalf("temperature-less header changed: %q", header)
	}
}

// TestTemperatureGridWarmCachePerformsZeroSimulations is the acceptance
// check for cached 3-D grids: a repeated -temps sweep over a shared cache
// must simulate nothing and reproduce the cold result exactly.
func TestTemperatureGridWarmCachePerformsZeroSimulations(t *testing.T) {
	cfg := tinySweepConfig(7)
	cfg.Temps = []float64{25, 55, 85}
	cfg.Parallelism = 4
	cfg.Cache = cellcache.Memory()

	cold, sims := runCounting(t, cfg, Figure14Variants())
	if want := len(cold.Cells); sims != want {
		t.Fatalf("cold 3-D run simulated %d cells, want %d", sims, want)
	}
	warm, sims := runCounting(t, cfg, Figure14Variants())
	if sims != 0 {
		t.Fatalf("warm 3-D run simulated %d cells, want 0", sims)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm 3-D result differs from the cold run")
	}
}

// TestTemperatureReachesTheDevice checks the axis is real where the model
// says it must be. Inside the calibrated envelope the RPT's safety margin
// absorbs the cold-read penalty by design (the paper's §5.2.3 argument),
// so response times are temperature-stable there — but beyond the profiled
// envelope (a block at 2.5K P/E cycles and 18 months, past the RPT's worst
// bucket) cold amplification pushes reduced-timing reads over the ECC
// capability and AR² must fall back to a default-timing re-read, so the
// adaptive schemes measure visibly worse at 25 °C than at 85 °C.
func TestTemperatureReachesTheDevice(t *testing.T) {
	cfg := tinySweepConfig(7)
	cfg.Workloads = []string{"YCSB-C"}
	cfg.Conditions = []Condition{{PEC: 2500, Months: 18}}
	cfg.Temps = []float64{25, 85}
	res, err := RunSweep(context.Background(), cfg, Figure14Variants())
	if err != nil {
		t.Fatal(err)
	}
	mean := func(config string, temp float64) float64 {
		for _, c := range res.Cells {
			if c.Config == config && c.Cond.TempC == temp {
				return c.Mean
			}
		}
		t.Fatalf("no %s cell at %g °C", config, temp)
		return 0
	}
	if cold, hot := mean("AR2", 25), mean("AR2", 85); cold <= hot {
		t.Errorf("AR2 beyond the RPT envelope: 25 °C mean %.0f µs ≤ 85 °C mean %.0f µs; cold fallbacks not reaching the device", cold, hot)
	}
	if cold, hot := mean("PnAR2", 25), mean("PnAR2", 85); cold <= hot {
		t.Errorf("PnAR2 beyond the RPT envelope: 25 °C mean %.0f µs ≤ 85 °C mean %.0f µs", cold, hot)
	}
	// And the summary reports the shift: the adaptive win shrinks at cold.
	byTemp := res.ReductionByTemp("AR2", "Baseline")
	if len(byTemp) != 2 || byTemp[0].TempC != 25 || byTemp[1].TempC != 85 {
		t.Fatalf("ReductionByTemp rows = %+v", byTemp)
	}
	if byTemp[0].Avg >= byTemp[1].Avg {
		t.Errorf("AR2 reduction at 25 °C (%.1f%%) should trail 85 °C (%.1f%%) beyond the envelope",
			byTemp[0].Avg*100, byTemp[1].Avg*100)
	}
}

func TestReductionByTemp(t *testing.T) {
	mk := func(wl string, temp, base, mean float64) []Cell {
		cond := Condition{PEC: 2000, Months: 6, TempC: temp}
		return []Cell{
			{Workload: wl, Cond: cond, Config: "Baseline", Mean: base},
			{Workload: wl, Cond: cond, Config: "PnAR2", Mean: mean},
		}
	}
	res := &Result{Configs: []string{"Baseline", "PnAR2"}}
	res.Cells = append(res.Cells, mk("a", 25, 100, 60)...) // 40 % at 25 °C
	res.Cells = append(res.Cells, mk("b", 25, 100, 80)...) // 20 % at 25 °C
	res.Cells = append(res.Cells, mk("a", 85, 100, 90)...) // 10 % at 85 °C
	got := res.ReductionByTemp("PnAR2", "Baseline")
	want := []TempReduction{
		{TempC: 25, Avg: 0.3, Max: 0.4},
		{TempC: 85, Avg: 0.1, Max: 0.1},
	}
	if len(got) != len(want) {
		t.Fatalf("ReductionByTemp = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].TempC != want[i].TempC ||
			math.Abs(got[i].Avg-want[i].Avg) > 1e-12 ||
			math.Abs(got[i].Max-want[i].Max) > 1e-12 {
			t.Fatalf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestRenderTemperatureGrid checks the table gains a readable temperature
// axis (wider condition column, temp-suffixed labels, temp-sorted rows)
// without disturbing temperature-less tables.
func TestRenderTemperatureGrid(t *testing.T) {
	cfg := tinySweepConfig(7)
	cfg.Temps = []float64{25, 85}
	cfg.Parallelism = 4
	res, err := RunSweep(context.Background(), cfg, Figure14Variants())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	for _, want := range []string{"2K/6mo/25C", "2K/6mo/85C"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered 3-D table missing %q\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	wantRows := len(cfg.Workloads)*len(cfg.Conditions)*len(cfg.Temps) + 2
	if len(lines) != wantRows {
		t.Errorf("3-D table has %d lines, want %d", len(lines), wantRows)
	}
}
