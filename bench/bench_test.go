package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"readretry/internal/experiments"
	"readretry/internal/ssd"
)

// TestTracedCellMatchesSweep pins the traced run to the program it
// measures: a cell rebuilt from the benchmark's side (cellTrace,
// cellDevice, ssd.New, Run) must equal the sweep engine's cell bit for
// bit, on a plain grid and on one with temperature and device axes.
func TestTracedCellMatchesSweep(t *testing.T) {
	plain := experiments.DefaultConfig()
	plain.Base = smallDevice()
	plain.Workloads = []string{"YCSB-C"}
	plain.Conditions = []experiments.Condition{{PEC: 2000, Months: 6}}
	plain.Requests = 300
	axes := plain
	axes.Temps = []float64{85}
	axes.Devices = []ssd.Device{ssd.DeviceQLC16}

	for name, cfg := range map[string]experiments.Config{"plain": plain, "temp+device": axes} {
		t.Run(name, func(t *testing.T) {
			res, err := experiments.RunSweep(context.Background(), cfg, experiments.Figure14Variants())
			if err != nil {
				t.Fatal(err)
			}
			g, err := experiments.NewGrid(cfg, experiments.Figure14Variants())
			if err != nil {
				t.Fatal(err)
			}
			recs, err := cellTrace(cfg, cfg.Workloads[0])
			if err != nil {
				t.Fatal(err)
			}
			for idx, want := range res.Cells {
				_, cond, v := g.CellAt(idx)
				dev, err := ssd.New(cellDevice(cfg, cond, v))
				if err != nil {
					t.Fatal(err)
				}
				st, err := dev.Run(recs)
				if err != nil {
					t.Fatal(err)
				}
				got := [4]float64{st.MeanAll(), st.MeanRead(), st.ReadPercentile(99), st.MeanRetrySteps()}
				if got != [4]float64{want.Mean, want.MeanRead, want.P99Read, want.RetrySteps} {
					t.Errorf("%s: traced cell %v, sweep cell %+v", g.Label(idx), got, want)
				}
			}
		})
	}
}

// TestWorkloadGrids checks each workload's grid resolves to its stated
// size under every seed, and that its expected CSV holds one row per cell.
func TestWorkloadGrids(t *testing.T) {
	sizes := map[string]int{"fig14": 600, "retry-deep": 20, "write-gc": 20, "coord": 1200}
	if len(sizes) != len(workloads) {
		t.Fatalf("%d workloads, %d stated sizes", len(workloads), len(sizes))
	}
	for _, w := range workloads {
		for _, seed := range []uint64{1, 2, 3} {
			if got := gridCells(w.permuted(seed)); got != sizes[w.Name] {
				t.Errorf("%s seed %d: %d cells, want %d", w.Name, seed, got, sizes[w.Name])
			}
		}
		data, err := os.ReadFile(filepath.Join("..", w.Expected))
		if err != nil {
			t.Fatal(err)
		}
		if _, rows := splitCSV(data); len(rows) != sizes[w.Name] {
			t.Errorf("%s: expected CSV has %d rows, want %d", w.Name, len(rows), sizes[w.Name])
		}
	}
}

// TestPermutedKeepsCells checks a seed reorders the grid without changing
// its cells.
func TestPermutedKeepsCells(t *testing.T) {
	w, err := workloadByName("retry-deep")
	if err != nil {
		t.Fatal(err)
	}
	cells := func(cfg experiments.Config) map[string]bool {
		g, err := experiments.NewGrid(cfg, experiments.Figure14Variants())
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]bool)
		for i := 0; i < g.Total(); i++ {
			out[g.Label(i)] = true
		}
		return out
	}
	if !reflect.DeepEqual(cells(w.Grid()), cells(w.permuted(7))) {
		t.Error("permuting the grid changed its cell set")
	}
	if !reflect.DeepEqual(w.permuted(7), w.permuted(7)) {
		t.Error("the same seed gave different inputs")
	}
}

func TestCheckCSV(t *testing.T) {
	want := []byte("h\na,1\nb,2\nc,3\n")
	for _, tc := range []struct {
		name      string
		got       string
		rows, bad int
	}{
		{"reordered", "h\nc,3\na,1\nb,2\n", 3, 0},
		{"one row changed", "h\na,1\nb,9\nc,3\n", 3, 1},
		{"one row missing", "h\na,1\nc,3\n", 3, 1},
		{"header changed", "x\na,1\nb,2\nc,3\n", 3, 3},
	} {
		rows, bad := checkCSV([]byte(tc.got), want)
		if rows != tc.rows || bad != tc.bad {
			t.Errorf("%s: rows %d bad %d, want %d and %d", tc.name, rows, bad, tc.rows, tc.bad)
		}
	}
}

func TestAdjustWall(t *testing.T) {
	for _, tc := range []struct {
		wall, steal float64
		cpus        int
		want        float64
	}{
		{10, 0, 2, 10},
		{10, 2, 2, 9},   // two CPUs share two seconds of steal
		{10, 2, 4, 9.5}, // four CPUs share it
		{1, 5, 1, 0.01}, // tick noise never drives the result below 1% of wall
	} {
		if got := adjustWall(tc.wall, tc.steal, tc.cpus); got != tc.want {
			t.Errorf("adjustWall(%g, %g, %d) = %g, want %g", tc.wall, tc.steal, tc.cpus, got, tc.want)
		}
	}
}

// TestQuartiles pins the quartile helper to Python's
// statistics.quantiles(xs, n=4), whose values are given literally.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2}, [3]float64{1.25, 3, 4.75}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "bench.cells", Start: 0, End: 100, Parent: -1},
		{Name: "experiments.cell", Start: 5, End: 95, Parent: 0},
		{Name: "ssd.new", Start: 10, End: 40, Parent: 1},
		{Name: "ssd.run", Start: 40, End: 90, Parent: 1},
	}}
	want := map[string]int64{"bench": 10, "experiments": 10, "ssd": 80}
	got := tr.selfTimes()
	var total int64
	for layer, d := range got {
		if int64(d) != want[layer] {
			t.Errorf("layer %s self time %d, want %d", layer, d, want[layer])
		}
		total += int64(d)
	}
	if total != 100 {
		t.Errorf("self times add up to %d, want the root's 100", total)
	}
}

// set builds a result set of untraced fig14 runs with the given wall
// times and every other end-to-end metric fixed.
func set(e env, walls ...float64) resultSet {
	s := resultSet{Env: e}
	for i, w := range walls {
		m := map[string]value{}
		for _, d := range endToEnd {
			m[d.Name] = value{Value: 1, Unit: d.Unit}
		}
		m["wall_s"] = value{Value: w, Unit: "s"}
		s.Runs = append(s.Runs, setRun{
			Detail: detail{Workload: "fig14", Seed: uint64(i + 1), Env: e},
			Result: result{Correct: true, Attempted: 600, Metrics: m},
		})
	}
	return s
}

func TestCompareSets(t *testing.T) {
	box := env{CPU: "x", Nproc: 2, GOMAXPROCS: 2, GoVersion: "go1.21"}
	other := box
	other.Nproc = 4
	traced := func(steps float64) setRun {
		return setRun{
			Detail: detail{Workload: "write-gc", Seed: 1, Trace: true},
			Result: result{Correct: true, Attempted: 1, Metrics: map[string]value{
				"experiments.cell_n": {Value: 20}, "ssd.retry_steps": {Value: steps},
			}},
		}
	}
	withTrace := func(s resultSet, steps float64) resultSet {
		s.Runs = append(s.Runs, traced(steps))
		return s
	}
	for _, tc := range []struct {
		name    string
		a, b    resultSet
		ok      bool
		verdict string
	}{
		{"within bound", set(box, 20, 21, 22), set(box, 21, 22, 23), true, "ok"},
		{"regression", set(box, 20, 21, 22), set(box, 26, 27, 28), false, "REGRESSION"},
		{"improvement", set(box, 20, 21, 22), set(box, 10, 11, 12), true, "ok"},
		{"env mismatch", set(box, 20, 21, 22), set(other, 20, 21, 22), false, "REFUSED: nproc differs"},
		{"exact counts agree", withTrace(set(box, 20), 5), withTrace(set(box, 20), 5), true, "ok"},
		{"exact count mismatch", withTrace(set(box, 20), 5), withTrace(set(box, 20), 6), false, "COUNT MISMATCH"},
	} {
		var out bytes.Buffer
		if ok := compareSets(&out, tc.a, tc.b); ok != tc.ok {
			t.Errorf("%s: compareSets = %t, want %t\n%s", tc.name, ok, tc.ok, out.String())
		}
		if !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.verdict, out.String())
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the benchmark harness
// reads, in step with the metric and workload tables here.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEnd:\n%+v\n%+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer")
	}
}
