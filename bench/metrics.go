package main

import "sort"

// metricDef is one entry of BENCHMARK.json's metric tables. Bound is the
// share of the baseline median by which an end-to-end metric may worsen
// before a change counts as a regression; layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, reported per
// workload from untraced runs. Times are steal-adjusted host time. The
// host-time bounds are set by the reference VM's noise: contention that
// shows as slower CPU time rather than steal makes ten runs of one commit
// spread (IQR ÷ median) by up to 16%.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cells_per_s", Unit: "cells/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_cell", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_cell", Unit: "MB", Better: "lower", Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	// Set-up is a sub-second interval measured across process starts, the
	// noisiest number here, so it shares the widest bound.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the traced run's metrics, named <layer>.<metric> after the
// repository's packages. Units ending in sim_us are simulated time, which
// repeats exactly; every other time is host time.
var perLayer = []metricDef{
	{Name: "workload.gen_ms", Unit: "ms", Better: "lower"},
	{Name: "rpt.profile_ms", Unit: "ms", Better: "lower"},
	{Name: "ftl.precondition_ms", Unit: "ms", Better: "lower"},
	{Name: "ftl.precondition_mb", Unit: "MB", Better: "lower"},
	{Name: "ssd.new_ms", Unit: "ms", Better: "lower"},
	{Name: "ssd.new_mb", Unit: "MB", Better: "lower"},
	{Name: "ssd.new_share", Unit: "ratio", Better: "lower"},
	{Name: "ssd.run_ms", Unit: "ms", Better: "lower"},
	{Name: "ssd.run_mb", Unit: "MB", Better: "lower"},
	{Name: "ssd.run_share", Unit: "ratio", Better: "lower"},
	{Name: "ssd.run_ns_per_request", Unit: "ns", Better: "lower"},
	{Name: "ssd.requests", Unit: "count", Better: "higher"},
	{Name: "ssd.page_reads", Unit: "count", Better: "higher"},
	{Name: "ssd.page_writes", Unit: "count", Better: "higher"},
	{Name: "ssd.retry_steps", Unit: "count", Better: "lower"},
	{Name: "ssd.retried_reads", Unit: "count", Better: "lower"},
	{Name: "ssd.gc_jobs", Unit: "count", Better: "lower"},
	{Name: "ssd.suspensions", Unit: "count", Better: "lower"},
	{Name: "ssd.read_queue_us", Unit: "sim_us", Better: "lower"},
	{Name: "ssd.read_service_us", Unit: "sim_us", Better: "lower"},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower"},
	{Name: "chip.read_ns", Unit: "ns", Better: "lower"},
	{Name: "chip.read_share", Unit: "ratio", Better: "lower"},
	{Name: "core.plan_ns", Unit: "ns", Better: "lower"},
	{Name: "experiments.cell_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "experiments.cell_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "experiments.cell_n", Unit: "count", Better: "higher"},
	{Name: "experiments.pool_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "experiments.csv_row_us", Unit: "us", Better: "lower"},
	{Name: "experiments.cellkey_us", Unit: "us", Better: "lower"},
	{Name: "cellcache.put_ms", Unit: "ms", Better: "lower"},
	{Name: "cellcache.get_us", Unit: "us", Better: "lower"},
	{Name: "cellcache.puts", Unit: "count", Better: "lower"},
	{Name: "cellcache.hits", Unit: "count", Better: "higher"},
	{Name: "coord.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "coord.resubmit_ms", Unit: "ms", Better: "lower"},
	{Name: "coord.lease_ms", Unit: "ms", Better: "lower"},
	{Name: "coord.complete_ms", Unit: "ms", Better: "lower"},
	{Name: "coord.shard_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "coord.shard_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "coord.shards", Unit: "count", Better: "higher"},
	{Name: "shard.run_share", Unit: "ratio", Better: "higher"},
	{Name: "coord.journal_kb", Unit: "KB", Better: "lower"},
	{Name: "coord.durable_writes", Unit: "count", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// fill converts raw numbers into the reported metric set, in the units the
// table declares; a metric missing from raw is a bug in the caller.
func fill(defs []metricDef, raw map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := raw[d.Name]
		if !ok {
			panic("bench: metric " + d.Name + " not measured")
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out
}

// median returns the middle of xs (the mean of the middle two for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so spreads printed here match the ones any external checker
// derives from the same values. A single value is every quartile; an empty
// slice yields zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
