package experiments

import (
	"bytes"
	"context"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"readretry/internal/experiments/cellcache"
	"readretry/internal/ssd"
)

func TestCrossDevicesExpansion(t *testing.T) {
	conds := []Condition{{PEC: 1000, Months: 3}, {PEC: 2000, Months: 6, TempC: 85}}
	got := CrossDevices(conds, []ssd.Device{ssd.DeviceTLC, ssd.DeviceQLC16})
	want := []Condition{
		{PEC: 1000, Months: 3, Device: ssd.DeviceTLC},
		{PEC: 1000, Months: 3, Device: ssd.DeviceQLC16},
		{PEC: 2000, Months: 6, TempC: 85, Device: ssd.DeviceTLC},
		{PEC: 2000, Months: 6, TempC: 85, Device: ssd.DeviceQLC16},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CrossDevices = %+v, want %+v", got, want)
	}
	// No axis: the grid passes through untouched.
	if out := CrossDevices(conds, nil); !reflect.DeepEqual(out, conds) {
		t.Fatalf("CrossDevices with no devices = %+v", out)
	}
}

func TestConditionStringDeviceSuffix(t *testing.T) {
	for _, tc := range []struct {
		cond Condition
		want string
	}{
		{Condition{PEC: 2000, Months: 6, Device: ssd.DeviceQLC16}, "2K/6mo/qlc16"},
		{Condition{PEC: 2000, Months: 6, Device: ssd.DeviceTLC}, "2K/6mo/tlc"},
		{Condition{PEC: 2000, Months: 6, TempC: 85, Device: ssd.DeviceQLC16}, "2K/6mo/85C/qlc16"},
		{Condition{PEC: 2000, Months: 6}, "2K/6mo"},
	} {
		if got := tc.cond.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.cond, got, tc.want)
		}
	}
}

// TestConditionValidateDevice: NewGrid refuses a condition naming an
// unknown device preset.
func TestConditionValidateDevice(t *testing.T) {
	good := Condition{PEC: 1000, Months: 3, Device: ssd.DeviceQLC16}
	if err := checkCondition(good); err != nil {
		t.Errorf("%+v: unexpected error %v", good, err)
	}
	bad := Condition{PEC: 1000, Months: 3, Device: "mlc8"}
	if err := checkCondition(bad); err == nil {
		t.Errorf("%+v: expected a validation error", bad)
	}
}

// TestSweepRejectsInvalidDeviceGrids mirrors the temperature-axis upfront
// validation: ill-formed device axes must fail before any cell simulates.
func TestSweepRejectsInvalidDeviceGrids(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"empty device in axis":   func(c *Config) { c.Devices = []ssd.Device{ssd.DeviceTLC, ""} },
		"unknown device in axis": func(c *Config) { c.Devices = []ssd.Device{"mlc8"} },
		"unknown pinned device": func(c *Config) {
			c.Conditions = []Condition{{PEC: 1000, Months: 3, Device: "plc32"}}
		},
		"pinned Device crossed with Devices": func(c *Config) {
			c.Conditions = []Condition{{PEC: 1000, Months: 3, Device: ssd.DeviceTLC}}
			c.Devices = []ssd.Device{ssd.DeviceTLC, ssd.DeviceQLC16}
		},
	} {
		cfg := tinySweepConfig(7)
		mutate(&cfg)
		simulated := false
		cfg.simHook = func() { simulated = true }
		if _, err := RunSweep(context.Background(), cfg, Figure14Variants()); err == nil {
			t.Errorf("%s: expected an error", name)
		}
		if simulated {
			t.Errorf("%s: sweep spent simulation time on an invalid grid", name)
		}
	}
}

// TestLegacySinkRejectsDeviceCells: attaching a device-less CSV or metrics
// sink to a device-axis grid must abort loudly, naming the constructor
// that picks the right schema, instead of silently dropping the device
// column.
func TestLegacySinkRejectsDeviceCells(t *testing.T) {
	for _, tc := range []struct {
		ctor    string
		newSink func(Config, io.Writer) (*CSVSink, error)
	}{{"NewCSVSinkFor", NewCSVSinkFor}, {"NewMetricsCSVSinkFor", NewMetricsCSVSinkFor}} {
		cfg := metricsSweepConfig(7)
		var buf bytes.Buffer
		sink, err := tc.newSink(cfg, &buf) // wrong: built before the axis
		if err != nil {
			t.Fatal(err)
		}
		cfg.Devices = []ssd.Device{ssd.DeviceTLC, ssd.DeviceQLC16}
		cfg.Sink = sink
		if _, err := RunSweep(context.Background(), cfg, Figure14Variants()); err == nil ||
			!strings.Contains(err.Error(), tc.ctor) {
			t.Fatalf("err = %v, want a schema-mismatch error pointing at %s", err, tc.ctor)
		}
	}
}

// TestDeviceAxisReachesTheDevice checks the axis is real: at the same aged
// condition the QLC preset's steeper drift and thinner margins must retry
// harder — and read slower — than the TLC preset, for the same variant.
func TestDeviceAxisReachesTheDevice(t *testing.T) {
	cfg := tinySweepConfig(7)
	cfg.Workloads = []string{"YCSB-C"}
	cfg.Conditions = []Condition{{PEC: 2000, Months: 12}}
	cfg.Devices = []ssd.Device{ssd.DeviceTLC, ssd.DeviceQLC16}
	res, err := RunSweep(context.Background(), cfg, Figure14Variants())
	if err != nil {
		t.Fatal(err)
	}
	cell := func(config string, dev ssd.Device) Cell {
		for _, c := range res.Cells {
			if c.Config == config && c.Cond.Device == dev {
				return c
			}
		}
		t.Fatalf("no %s cell on device %s", config, dev)
		return Cell{}
	}
	tlc, qlc := cell("Baseline", ssd.DeviceTLC), cell("Baseline", ssd.DeviceQLC16)
	if qlc.RetrySteps <= tlc.RetrySteps {
		t.Errorf("aged QLC mean N_RR %.1f should exceed TLC's %.1f", qlc.RetrySteps, tlc.RetrySteps)
	}
	if qlc.MeanRead <= tlc.MeanRead {
		t.Errorf("aged QLC mean read %.0f µs should exceed TLC's %.0f µs", qlc.MeanRead, tlc.MeanRead)
	}
	// The summary reports per-device rows in preset-name order.
	byDev := res.ReductionByDevice("PnAR2", "Baseline")
	if len(byDev) != 2 || byDev[0].Device != ssd.DeviceQLC16 || byDev[1].Device != ssd.DeviceTLC {
		t.Fatalf("ReductionByDevice rows = %+v", byDev)
	}
	for _, r := range byDev {
		if r.Avg <= 0 {
			t.Errorf("PnAR2 on %s: non-positive reduction %.3f", r.Device, r.Avg)
		}
	}
}

func TestReductionByDevice(t *testing.T) {
	mk := func(wl string, dev ssd.Device, base, mean float64) []Cell {
		cond := Condition{PEC: 2000, Months: 6, Device: dev}
		return []Cell{
			{Workload: wl, Cond: cond, Config: "Baseline", Mean: base},
			{Workload: wl, Cond: cond, Config: "PnAR2", Mean: mean},
		}
	}
	res := &Result{Configs: []string{"Baseline", "PnAR2"}}
	res.Cells = append(res.Cells, mk("a", ssd.DeviceTLC, 100, 60)...)   // 40 % on tlc
	res.Cells = append(res.Cells, mk("b", ssd.DeviceTLC, 100, 80)...)   // 20 % on tlc
	res.Cells = append(res.Cells, mk("a", ssd.DeviceQLC16, 100, 90)...) // 10 % on qlc16
	got := res.ReductionByDevice("PnAR2", "Baseline")
	want := []DeviceReduction{
		{Device: ssd.DeviceQLC16, Avg: 0.1, Max: 0.1},
		{Device: ssd.DeviceTLC, Avg: 0.3, Max: 0.4},
	}
	if len(got) != len(want) {
		t.Fatalf("ReductionByDevice = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].Device != want[i].Device ||
			math.Abs(got[i].Avg-want[i].Avg) > 1e-12 ||
			math.Abs(got[i].Max-want[i].Max) > 1e-12 {
			t.Fatalf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestDeviceGridWarmCachePerformsZeroSimulations: a repeated device sweep
// over a shared cache must simulate nothing and reproduce the cold result
// exactly — and the TLC and QLC cells must live under distinct keys.
func TestDeviceGridWarmCachePerformsZeroSimulations(t *testing.T) {
	cfg := tinySweepConfig(7)
	cfg.Workloads = []string{"stg_0"}
	cfg.Devices = []ssd.Device{ssd.DeviceTLC, ssd.DeviceQLC16}
	cfg.Parallelism = 4
	cfg.Cache = cellcache.Memory()

	cold, sims := runCounting(t, cfg, Figure14Variants())
	if want := len(cold.Cells); sims != want {
		t.Fatalf("cold device-axis run simulated %d cells, want %d", sims, want)
	}
	warm, sims := runCounting(t, cfg, Figure14Variants())
	if sims != 0 {
		t.Fatalf("warm device-axis run simulated %d cells, want 0", sims)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm device-axis result differs from the cold run")
	}
}

// TestRenderDeviceGrid checks the table renders device-suffixed condition
// labels for device-axis grids.
func TestRenderDeviceGrid(t *testing.T) {
	cfg := tinySweepConfig(7)
	cfg.Workloads = []string{"stg_0"}
	cfg.Devices = []ssd.Device{ssd.DeviceTLC, ssd.DeviceQLC16}
	cfg.Parallelism = 4
	res, err := RunSweep(context.Background(), cfg, Figure14Variants())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	for _, want := range []string{"2K/6mo/tlc", "2K/6mo/qlc16"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered device-axis table missing %q\n%s", want, out)
		}
	}
}
