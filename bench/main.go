// Command bench is the repository benchmark: it measures the read-retry
// simulator end to end on four workloads, checks every output row against
// an expected CSV, and breaks each workload's cost into layers in a
// separate traced run. README.md documents the workloads, the metrics and
// their bounds.
//
// One workload, as the benchmark harness calls it (the last output line
// is the JSON result):
//
//	bash bench/run.sh --workload fig14 --seed 1 --seconds 20 --trace 0
//
// Every workload, writing a result set, and a comparison of two sets:
//
//	bash bench/run.sh -runs 3 -out a.json
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"readretry/internal/experiments"
)

// stateRoot is where runs keep files, relative to the repository root;
// the build script puts the binary there too.
const stateRoot = ".bench_build"

// setupProbes is how many fresh processes measure set-up time per run.
const setupProbes = 5

// childTimeout kills a child process that hangs; a healthy pass or probe
// takes well under a minute.
const childTimeout = 170 * time.Second

func main() {
	entry := takeMark() // a set-up probe's clock starts here

	workloadName := flag.String("workload", "", "run one workload (fig14, retry-deep, write-gc, coord); without it every workload runs in its own process")
	seed := flag.Uint64("seed", 1, "input seed: permutes the order of the grid's axes")
	seconds := flag.Int("seconds", 20, "how long a run measures")
	traced := flag.Int("trace", 0, "1 measures the per-layer breakdown instead of the end-to-end metrics")
	runs := flag.Int("runs", 1, "without -workload: runs per workload, with seeds seed, seed+1, …")
	out := flag.String("out", "", "without -workload: write the result set to this JSON file")
	compare := flag.Bool("compare", false, "compare two result sets given as arguments: -compare A.json B.json")
	child := flag.String("child", "", "internal: run one \"pass\" or set-up \"probe\" of -workload and print it as JSON")
	writeExpected := flag.Bool("write-expected", false, "regenerate the expected CSVs under bench/expected")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two result-set files"))
		}
		ok, err := compareFiles(flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	if *writeExpected {
		if err := writeExpectedCSVs(root); err != nil {
			fatal(err)
		}
		return
	}
	budget := time.Duration(*seconds) * time.Second
	if *workloadName == "" {
		ok, err := runAll(root, *seed, *runs, *seconds, *traced, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, err := workloadByName(*workloadName)
	if err != nil {
		fatal(err)
	}
	switch *child {
	case "pass":
		printJSON(runPass(root, w, *seed))
	case "probe":
		u, err := probe(entry, w)
		if err != nil {
			fatal(err)
		}
		printJSON(u)
		// The sweep is still running; the probe has what it came for.
		os.Exit(0)
	case "":
		d, res, err := runWorkload(root, w, *seed, budget, *traced == 1)
		if err != nil {
			fatal(err)
		}
		printJSON(map[string]detail{"detail": d})
		printJSON(res)
		if !res.Correct {
			os.Exit(1)
		}
	default:
		fatal(fmt.Errorf("unknown -child %q", *child))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func printJSON(v interface{}) {
	data, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

// findRoot returns the repository root: the nearest directory at or above
// the working directory whose go.mod declares module readretry.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module readretry\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no readretry module at or above the working directory")
		}
		dir = parent
	}
}

// probe measures set-up time in a fresh process: steal-adjusted time from
// entering main to the first completed cell of the workload's grid. It
// runs the grid in canonical order: which cells come first decides how
// long the first one takes, and set-up must not vary with the seed.
func probe(entry mark, w benchWorkload) (usage, error) {
	first := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		_, _, err := runGrid(context.Background(), w, w.Grid(), func() { once.Do(func() { close(first) }) })
		done <- err
	}()
	select {
	case <-first:
		return entry.usage(), nil
	case err := <-done:
		if err == nil {
			err = errors.New("grid finished without reporting a cell")
		}
		return usage{}, err
	}
}

// detail is the line before the result: everything a run measured beyond
// its metrics, including the raw wall and steal time of every interval.
type detail struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      bool               `json:"trace"`
	Env        env                `json:"env"`
	Passes     []passReport       `json:"passes"`
	Probes     []usage            `json:"probes,omitempty"`
	FailedFrac float64            `json:"failed_frac"`
	PaperGapPP float64            `json:"paper_gap_pp,omitempty"`
	SelfMS     map[string]float64 `json:"self_ms,omitempty"`
	TraceFile  string             `json:"trace_file,omitempty"`
}

// runWorkload is one benchmark run. Untraced, it measures set-up in
// setupProbes fresh processes, then runs passes over the whole grid, each
// in a fresh process so every pass starts with cold memos, for as long as
// another pass is expected to end within budget (always at least one).
// Traced, it runs one untraced pass and then the per-layer breakdown in
// this process.
func runWorkload(root string, w benchWorkload, seed uint64, budget time.Duration, traced bool) (detail, result, error) {
	d := detail{Workload: w.Name, Seed: seed, Trace: traced, Env: hostEnv(root)}
	var res result
	if traced {
		var p passReport
		if err := runChild(&p, "pass", w, seed); err != nil {
			return d, res, err
		}
		d.Passes = []passReport{p}
		d.TraceFile = filepath.Join(stateRoot, fmt.Sprintf("trace-%s-%d.json", w.Name, seed))
		t, err := runTraced(root, w, seed, budget, p, filepath.Join(root, d.TraceFile))
		if err != nil {
			return d, res, err
		}
		d.SelfMS = make(map[string]float64)
		for layer, dur := range t.tr.selfTimes() {
			d.SelfMS[layer] = ms(dur)
		}
		res = result{Attempted: p.Rows + t.attempted, Failed: p.Bad + t.failed, Metrics: fill(perLayer, t.raw)}
	} else {
		for i := 0; i < setupProbes; i++ {
			var u usage
			if err := runChild(&u, "probe", w, seed); err != nil {
				return d, res, err
			}
			d.Probes = append(d.Probes, u)
		}
		start := time.Now()
		var last time.Duration
		for len(d.Passes) == 0 || time.Since(start)+last <= budget {
			began := time.Now()
			var p passReport
			if err := runChild(&p, "pass", w, seed); err != nil {
				return d, res, err
			}
			last = time.Since(began)
			d.Passes = append(d.Passes, p)
		}
		res = result{Metrics: fill(endToEnd, endToEndRaw(d))}
		for _, p := range d.Passes {
			res.Attempted += p.Rows
			res.Failed += p.Bad
		}
	}
	for _, p := range d.Passes {
		if p.Error != "" {
			fmt.Fprintf(os.Stderr, "bench: %s pass failed: %s\n", w.Name, p.Error)
		}
	}
	d.PaperGapPP = d.Passes[0].PaperGapPP
	d.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0
	return d, res, nil
}

// endToEndRaw derives the end-to-end metrics from a run's passes and
// probes: each is the median over the run's intervals, from steal-adjusted
// wall time.
func endToEndRaw(d detail) map[string]float64 {
	var wall, rate, cpu, alloc, rss, setup []float64
	for _, p := range d.Passes {
		cells := float64(p.Cells)
		wall = append(wall, p.Usage.AdjWallS)
		rate = append(rate, cells/p.Usage.AdjWallS)
		cpu = append(cpu, p.Usage.CPUS*1e3/cells)
		alloc = append(alloc, p.Usage.AllocMB/cells)
		rss = append(rss, p.PeakRSSMB)
	}
	for _, u := range d.Probes {
		setup = append(setup, u.AdjWallS)
	}
	return map[string]float64{
		"wall_s":            median(wall),
		"cells_per_s":       median(rate),
		"cpu_ms_per_cell":   median(cpu),
		"alloc_mb_per_cell": median(alloc),
		"peak_rss_mb":       median(rss),
		"setup_s":           median(setup),
	}
}

// runChild runs one pass or probe of the workload in a fresh process and
// decodes its JSON report into out.
func runChild(out interface{}, kind string, w benchWorkload, seed uint64) error {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	data, err := selfCommand(ctx, "-child", kind, "-workload", w.Name, "-seed", strconv.FormatUint(seed, 10)).Output()
	if err != nil {
		return fmt.Errorf("%s %s: %w", w.Name, kind, err)
	}
	return json.Unmarshal(lastLine(data), out)
}

// selfCommand runs this binary again, with stderr passed through.
func selfCommand(ctx context.Context, args ...string) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	return cmd
}

func lastLine(data []byte) []byte {
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	return []byte(lines[len(lines)-1])
}

// writeExpectedCSVs regenerates every expected CSV except the Figure 14
// golden, which belongs to the repository's own tests, from one
// in-process sweep of each workload's canonical grid.
func writeExpectedCSVs(root string) error {
	for _, w := range workloads {
		if w.Name == "fig14" {
			continue
		}
		cfg := w.Grid()
		cfg.Parallelism = nproc()
		res, err := experiments.RunSweep(context.Background(), cfg, experiments.Figure14Variants())
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		f, err := os.Create(filepath.Join(root, w.Expected))
		if err != nil {
			return err
		}
		if err := res.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
