package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// resultSet is every run of one invocation without -workload, the unit
// -compare works on.
type resultSet struct {
	Env  env      `json:"env"`
	Runs []setRun `json:"runs"`
}

type setRun struct {
	Detail detail `json:"detail"`
	Result result `json:"result"`
}

// runAll runs every workload runs times, each run in its own process, and
// prints the metrics of each. It reports whether every run was correct.
func runAll(root string, seed uint64, runs, seconds, traced int, out string) (bool, error) {
	set := resultSet{Env: hostEnv(root)}
	ok := true
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			s := seed + uint64(r)
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds)*time.Second+15*time.Minute)
			data, err := selfCommand(ctx, "-workload", w.Name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced)).Output()
			cancel()
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			if len(lines) < 2 {
				return false, fmt.Errorf("%s seed %d: %v", w.Name, s, err)
			}
			var run setRun
			var d map[string]detail
			if err := json.Unmarshal([]byte(lines[len(lines)-2]), &d); err != nil {
				return false, fmt.Errorf("%s seed %d detail: %w", w.Name, s, err)
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.Result); err != nil {
				return false, fmt.Errorf("%s seed %d result: %w", w.Name, s, err)
			}
			run.Detail = d["detail"]
			ok = ok && run.Result.Correct
			set.Runs = append(set.Runs, run)
			printRun(os.Stdout, run)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}

func printRun(w io.Writer, run setRun) {
	d, r := run.Detail, run.Result
	fmt.Fprintf(w, "%s seed %d trace=%t: correct=%t attempted=%d failed=%d failed_frac=%g",
		d.Workload, d.Seed, d.Trace, r.Correct, r.Attempted, r.Failed, d.FailedFrac)
	if d.PaperGapPP != 0 {
		fmt.Fprintf(w, " paper_gap_pp=%.2f", d.PaperGapPP)
	}
	fmt.Fprintln(w)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-28s %12.4f %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
}

func readSet(path string) (resultSet, error) {
	var s resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func compareFiles(a, b string) (bool, error) {
	sa, err := readSet(a)
	if err != nil {
		return false, err
	}
	sb, err := readSet(b)
	if err != nil {
		return false, err
	}
	return compareSets(os.Stdout, sa, sb), nil
}

// hostTimed reports whether a unit measures host time, which is only
// comparable between sets measured on the same kind of machine.
func hostTimed(unit string) bool {
	switch unit {
	case "s", "ms", "cells/s":
		return true
	}
	return false
}

// envMismatch names the first machine property that differs between two
// sets, or returns "" when their host timings are comparable.
func envMismatch(a, b env) string {
	switch {
	case a.CPU != b.CPU:
		return "cpu"
	case a.Nproc != b.Nproc:
		return "nproc"
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return "gomaxprocs"
	case a.GoVersion != b.GoVersion:
		return "go version"
	}
	return ""
}

// exactCounts are the simulated per-cell statistics of the traced run:
// for one seed and one traced cell count they repeat exactly, and differ
// only when the simulation itself changed.
var exactCounts = []string{
	"ssd.requests", "ssd.page_reads", "ssd.page_writes", "ssd.retry_steps",
	"ssd.retried_reads", "ssd.gc_jobs", "ssd.suspensions",
	"ssd.read_queue_us", "ssd.read_service_us",
}

// compareSets prints, for every workload and end-to-end metric, the median
// and quartiles of both sets and whether B stays within the metric's bound
// of A; it then checks the exact counts of traced runs both sets made with
// the same seed. It reports whether everything was comparable, correct
// and within bounds.
func compareSets(w io.Writer, a, b resultSet) bool {
	ok := true
	mismatch := envMismatch(a.Env, b.Env)
	for _, set := range []resultSet{a, b} {
		for _, run := range set.Runs {
			if !run.Result.Correct {
				fmt.Fprintf(w, "%s seed %d: INCORRECT (%d of %d rows failed)\n",
					run.Detail.Workload, run.Detail.Seed, run.Result.Failed, run.Result.Attempted)
				ok = false
			}
		}
	}
	fmt.Fprintf(w, "%-10s %-18s %28s %28s %8s  %s\n", "workload", "metric", "A median [q1 q3] n", "B median [q1 q3] n", "change", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := metricValues(a, wl.Name, m.Name), metricValues(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			change := (b2 - a2) / a2
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case mismatch != "" && hostTimed(m.Unit):
				verdict = "REFUSED: " + mismatch + " differs"
				ok = false
			case worse > m.Bound:
				verdict = fmt.Sprintf("REGRESSION (bound %g%%)", m.Bound*100)
				ok = false
			}
			fmt.Fprintf(w, "%-10s %-18s %28s %28s %+7.2f%%  %s\n", wl.Name, m.Name,
				fmt.Sprintf("%.4g [%.4g %.4g] %d", a2, a1, a3, len(va)),
				fmt.Sprintf("%.4g [%.4g %.4g] %d", b2, b1, b3, len(vb)),
				change*100, verdict)
		}
	}
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			da, db := ra.Detail, rb.Detail
			if !da.Trace || !db.Trace || da.Workload != db.Workload || da.Seed != db.Seed ||
				ra.Result.Metrics["experiments.cell_n"] != rb.Result.Metrics["experiments.cell_n"] {
				continue
			}
			for _, name := range exactCounts {
				x, y := ra.Result.Metrics[name].Value, rb.Result.Metrics[name].Value
				if x != y { // exact counts must repeat bit for bit
					fmt.Fprintf(w, "%s seed %d %s: COUNT MISMATCH %v vs %v\n", da.Workload, da.Seed, name, x, y)
					ok = false
				}
			}
		}
	}
	return ok
}

// metricValues collects one metric over a set's untraced runs of a
// workload.
func metricValues(s resultSet, workload, metric string) []float64 {
	var out []float64
	for _, run := range s.Runs {
		if run.Detail.Workload != workload || run.Detail.Trace {
			continue
		}
		if v, ok := run.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
