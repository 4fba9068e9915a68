package readretry_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"readretry"
)

// TestQuickGridGoldens pins every CSV schema the sweeps emit — no axis,
// temperature, device, both, and Figure 15's columns, each as a sweep CSV
// and a retry-metrics CSV — to testdata/golden_quick_*.csv, the output of
// `repro -quick -retry-metrics -csv` for the same grid. Each row rebuilds
// its grid through the facade at the given parallelism and requires the
// streamed sinks and the buffered writers to equal the golden byte for
// byte.
func TestQuickGridGoldens(t *testing.T) {
	both := []readretry.Device{readretry.DeviceTLC, readretry.DeviceQLC16}
	for _, tc := range []struct {
		name        string
		golden      string // testdata/golden_quick_<golden>[.metrics].csv
		fig15       bool
		temps       []float64
		devices     []readretry.Device
		parallelism int
	}{
		{name: "fig14_parallel1", golden: "fig14", parallelism: 1},
		{name: "fig14_parallel8", golden: "fig14", parallelism: 8},
		{name: "temps_parallel1", golden: "fig14_temps", temps: []float64{25, 85}, parallelism: 1},
		{name: "temps_parallel8", golden: "fig14_temps", temps: []float64{25, 85}, parallelism: 8},
		{name: "devices_parallel1", golden: "fig14_devices", devices: both, parallelism: 1},
		{name: "devices_parallel8", golden: "fig14_devices", devices: both, parallelism: 8},
		{name: "temps_devices", golden: "fig14_temps_devices", temps: []float64{25, 85}, devices: both},
		{name: "fig15", golden: "fig15", fig15: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := readretry.QuickSweepConfig()
			cfg.Temps = tc.temps
			cfg.Devices = tc.devices
			cfg.Parallelism = tc.parallelism
			cfg.Base.RetryMetrics = true
			variants := readretry.Figure14Variants()
			if tc.fig15 {
				variants = readretry.Figure15Variants()
			}

			var sweepCSV, metricsCSV bytes.Buffer
			sink, err := readretry.NewSweepCSVSinkFor(cfg, &sweepCSV)
			if err != nil {
				t.Fatal(err)
			}
			msink, err := readretry.NewSweepMetricsCSVSinkFor(cfg, &metricsCSV)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Sink = readretry.SweepCellSinkFunc(func(c readretry.SweepCell, index, total int) error {
				if err := sink.Cell(c, index, total); err != nil {
					return err
				}
				return msink.Cell(c, index, total)
			})
			res, err := readretry.RunSweep(context.Background(), cfg, variants)
			if err != nil {
				t.Fatal(err)
			}

			var bufferedCSV, bufferedMetrics bytes.Buffer
			if err := res.WriteCSV(&bufferedCSV); err != nil {
				t.Fatal(err)
			}
			if err := res.WriteMetricsCSV(&bufferedMetrics); err != nil {
				t.Fatal(err)
			}
			for _, out := range []struct {
				file             string
				streamed, buffer []byte
			}{
				{"golden_quick_" + tc.golden + ".csv", sweepCSV.Bytes(), bufferedCSV.Bytes()},
				{"golden_quick_" + tc.golden + ".metrics.csv", metricsCSV.Bytes(), bufferedMetrics.Bytes()},
			} {
				want, err := os.ReadFile(filepath.Join("testdata", out.file))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out.streamed, want) {
					t.Errorf("streamed CSV differs from %s\ngot:\n%s", out.file, out.streamed)
				}
				if !bytes.Equal(out.buffer, want) {
					t.Errorf("buffered CSV differs from %s\ngot:\n%s", out.file, out.buffer)
				}
			}
		})
	}
}
