// Package experiments drives the system-level evaluation of §7: the
// Figure 14 sweep (Baseline / PR² / AR² / PnAR² / NoRR over twelve
// workloads and a grid of operating conditions) and the Figure 15 sweep
// (PSO and PSO+PnAR² against the same baseline), plus text rendering for
// every reproduced table and figure. cmd/repro and the repository benches
// are thin wrappers over this package.
package experiments

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"readretry/internal/experiments/cellcache"
	"readretry/internal/mathx"
	"readretry/internal/ssd"
	"readretry/internal/ssd/retrymetrics"
	"readretry/internal/trace"
	"readretry/internal/workload"
)

// Condition is one (PEC, retention, temperature, device) evaluation point
// of Figures 14/15. TempC is the operating temperature reads execute at;
// the zero value is a sentinel meaning "the device template's default"
// (Config.Base.TempC), which keeps temperature-less grids — the paper's
// original 2-D sweep — identical to what they always were. A non-zero
// TempC overrides the device temperature for that cell only, turning the
// grid into the 3-D PEC × retention × temperature sweep the error model
// (internal/vth) is calibrated for. To sweep a literal 0 °C point, set
// Base.TempC instead of the sentinel.
//
// Device follows the same sentinel pattern for the cell-geometry axis: the
// empty string means "whatever device Config.Base describes" (the default
// TLC template), keeping single-device grids identical to what they always
// were; a named preset (ssd.DeviceQLC16) re-bases that cell's device config
// through Device.Apply before the condition is installed, so one grid can
// sweep TLC against QLC at every (PEC, retention, temperature) point.
type Condition struct {
	PEC    int
	Months float64
	TempC  float64
	Device ssd.Device
}

// String formats the condition as the figures label it: the PEC in
// thousands with "K" ("2K/6mo"), with the operating temperature appended
// when the condition carries one ("2K/6mo/85C") and the device preset
// appended when the condition carries one ("2K/6mo/qlc16",
// "2K/6mo/85C/qlc16"). Every numeric field renders exactly — 500 is
// "0.5K", 1500 is "1.5K" — and each suffix appears iff its axis is
// explicit, so distinct conditions always produce distinct labels (integer
// division here used to truncate any PEC that was not a multiple of 1000,
// collapsing e.g. 500 and 999 into "0K").
func (c Condition) String() string {
	var s string
	if c.TempC == 0 {
		s = fmt.Sprintf("%gK/%gmo", float64(c.PEC)/1000, c.Months)
	} else {
		s = fmt.Sprintf("%gK/%gmo/%gC", float64(c.PEC)/1000, c.Months, c.TempC)
	}
	if c.Device != "" {
		s += "/" + string(c.Device)
	}
	return s
}

// CrossTemps expands a condition grid across a temperature axis: every
// condition is repeated once per temperature (condition-major, so all
// temperatures of one (PEC, retention) point are adjacent), with its TempC
// overridden. It is how Config.Temps builds the 3-D grid.
func CrossTemps(conds []Condition, temps []float64) []Condition {
	if len(temps) == 0 {
		return conds
	}
	out := make([]Condition, 0, len(conds)*len(temps))
	for _, c := range conds {
		for _, t := range temps {
			c.TempC = t
			out = append(out, c)
		}
	}
	return out
}

// CrossDevices expands a condition grid across a device axis: every
// condition is repeated once per device preset (condition-major, so all
// devices of one (PEC, retention, temperature) point are adjacent), with
// its Device overridden. It is how Config.Devices builds the multi-device
// grid, composing with CrossTemps (devices innermost).
func CrossDevices(conds []Condition, devices []ssd.Device) []Condition {
	if len(devices) == 0 {
		return conds
	}
	out := make([]Condition, 0, len(conds)*len(devices))
	for _, c := range conds {
		for _, d := range devices {
			c.Device = d
			out = append(out, c)
		}
	}
	return out
}

// Definition is what a sweep is: the device template, the grid's axes
// and the trace shape — every field that decides the cell-index space and
// every measurement, and nothing local to the process running it. Config
// embeds it beside the process-local knobs, and the coordinator's wire
// spec embeds it beside the variant roster, so its JSON tags are the wire
// form. Every leaf is a plain number or string, so a JSON round trip is
// exact. NewGrid is the one check of whether a Definition is valid.
type Definition struct {
	// Base is the device template; scheme fields are overwritten per run.
	Base ssd.Config `json:"base"`
	// Workloads are Table 2 names; nil selects all twelve, and an empty
	// non-nil list is an empty grid.
	Workloads []string `json:"workloads"`
	// Conditions are the (PEC, t_RET) grid; nil selects the default
	// {1K, 2K} × {0, 1, 3, 6, 12} months, and an empty non-nil list is an
	// empty grid. Each condition may carry its own operating temperature
	// (Condition.TempC); 0 inherits Base.TempC.
	Conditions []Condition `json:"conditions"`
	// Temps, when non-empty, crosses the condition grid with an operating-
	// temperature axis: every condition runs once per listed temperature
	// (CrossTemps), making the sweep the 3-D PEC × retention × temperature
	// grid. Temperatures must be non-zero (0 is the "device default"
	// sentinel — change Base.TempC instead) and within the device's
	// calibrated range, and the conditions themselves must then be
	// temperature-less (a condition pinning its own TempC alongside Temps
	// is rejected as ambiguous). Empty preserves the 2-D grid exactly.
	Temps []float64 `json:"temps,omitempty"`
	// Devices, when non-empty, crosses the condition grid with a device
	// axis: every condition runs once per listed preset (CrossDevices,
	// innermost — after Temps), so one sweep compares cell technologies at
	// every operating point. Presets must be named (the empty string is
	// the "Base device" sentinel — change Base itself instead) and valid,
	// and the conditions themselves must then be device-less, mirroring
	// the Temps axis rules. Empty preserves the single-device grid
	// exactly.
	Devices []ssd.Device `json:"devices,omitempty"`
	// Requests per run and the workload arrival rate.
	Requests int     `json:"requests"`
	IOPS     float64 `json:"iops"`
	Seed     uint64  `json:"seed"`
}

// Config parameterizes a sweep: its Definition plus the knobs local to the
// process running it.
type Config struct {
	Definition
	// Parallelism bounds RunSweep's worker pool. 0 (the default) selects
	// runtime.GOMAXPROCS(0); 1 reproduces the original serial execution
	// order exactly. The result is identical at every setting.
	Parallelism int
	// Progress, when non-nil, is invoked after each completed cell with
	// the running count and the grid total. Calls are serialized and
	// done is strictly increasing.
	Progress func(done, total int)
	// Sink, when non-nil, receives every cell in canonical order as its
	// (workload, condition) stripe completes — normalized, with its grid
	// index — so consumers can stream output (see CSVSink) instead of
	// waiting for the Result. A sink error aborts the sweep. One sweep has
	// one sink; a consumer writing several streams (the sweep CSV and the
	// retry-metrics CSV) fans out inside it.
	Sink CellSink
	// Cache, when non-nil, is consulted before simulating each cell (by
	// a content-addressed key over the workload, condition, variant
	// behavior, seed, trace shape, and device config) and filled after
	// each miss. A warm cache run performs zero simulations and zero
	// trace generations; results are bit-identical with or without it.
	Cache cellcache.Cache

	// simHook, when non-nil, observes every actual simulation (cache
	// hits excluded). Tests inject it to assert cache effectiveness.
	simHook func()
}

// DefaultConfig returns the full Figure 14/15 sweep at experiment scale.
func DefaultConfig() Config {
	return Config{Definition: Definition{
		Base:      ssd.ExperimentConfig(),
		Workloads: workload.Names(),
		Conditions: []Condition{
			{PEC: 1000, Months: 0}, {PEC: 1000, Months: 1}, {PEC: 1000, Months: 3},
			{PEC: 1000, Months: 6}, {PEC: 1000, Months: 12},
			{PEC: 2000, Months: 0}, {PEC: 2000, Months: 1}, {PEC: 2000, Months: 3},
			{PEC: 2000, Months: 6}, {PEC: 2000, Months: 12},
		},
		Requests: 2500,
		IOPS:     1200,
		Seed:     7,
	}}
}

// QuickConfig returns a reduced sweep for smoke tests and benches.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Workloads = []string{"stg_0", "mds_1", "YCSB-C"}
	cfg.Conditions = []Condition{{PEC: 1000, Months: 3}, {PEC: 2000, Months: 6}}
	cfg.Requests = 1200
	return cfg
}

// conditions resolves the sweep's effective condition grid: the configured
// (or default) conditions, expanded across the Temps axis and then the
// Devices axis when set.
func (cfg Config) conditions() []Condition {
	conds := cfg.Conditions
	if conds == nil {
		conds = DefaultConfig().Conditions
	}
	return CrossDevices(CrossTemps(conds, cfg.Temps), cfg.Devices)
}

// HasTemperatureAxis reports whether any cell of the sweep's effective
// grid carries an explicit operating temperature — i.e. whether outputs
// need the temperature column (see NewCSVSinkFor).
func (cfg Config) HasTemperatureAxis() bool {
	for _, c := range cfg.conditions() {
		if c.TempC != 0 {
			return true
		}
	}
	return false
}

// HasDeviceAxis reports whether any cell of the sweep's effective grid
// carries an explicit device preset — i.e. whether outputs need the device
// column (see NewCSVSinkFor). Single-device grids (everything before the
// device axis existed) report false and keep their historical schema.
func (cfg Config) HasDeviceAxis() bool {
	for _, c := range cfg.conditions() {
		if c.Device != "" {
			return true
		}
	}
	return false
}

// Cell is one bar of Figure 14/15: a (workload, condition, configuration)
// measurement.
type Cell struct {
	Workload string
	Cond     Condition
	Config   string  // "Baseline", "PR2", …, "PSO", "PSO+PnAR2"
	Mean     float64 // mean response time, µs
	MeanRead float64
	P99Read  float64 // 99th-percentile read response time, µs
	// Normalized is Mean over the reference (Baseline) Mean at the same
	// (workload, cond), or 0 when the stripe has no reference cell or
	// the reference measured a zero mean (normalization undefined).
	Normalized float64
	RetrySteps float64 // mean N_RR observed
	// Retry is the per-address retry accounting digest, present iff the
	// sweep's device template enables Base.RetryMetrics. It flows through
	// the cell cache, shard records, and the coordinator unchanged.
	Retry *retrymetrics.Summary
}

// Result is a completed sweep.
type Result struct {
	Cells []Cell
	// Configs lists the configurations in presentation order.
	Configs []string
}

// traceFor builds the deterministic request stream for a workload sized to
// the device. The arrival rate is normalized by the workload's average
// request size so every workload presents the same page-level load (IOPS is
// interpreted as pages per second).
func traceFor(cfg Config, name string) ([]trace.Record, error) {
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	spec.FootprintPages = cfg.Base.TotalPages() * 6 / 10
	spec.AvgIOPS = cfg.IOPS / spec.AvgPagesPerRequest()
	return workload.NewGenerator(spec, cfg.Seed).Generate(cfg.Requests), nil
}

// runOne executes a single (workload, condition, variant) simulation.
func runOne(cfg Config, recs []trace.Record, cond Condition, v Variant) (*ssd.Stats, error) {
	if cfg.simHook != nil {
		cfg.simHook()
	}
	dev, err := ssd.New(cellConfig(cfg.Base, cond, v))
	if err != nil {
		return nil, err
	}
	return dev.Run(recs)
}

// cellConfig derives the device configuration one cell runs: the template
// re-based on the condition's device preset, with the variant's scheme and
// the condition's operating point installed. runOne simulates it and
// NewGrid validates it, so a sweep is refused for exactly the cells that
// would fail.
func cellConfig(base ssd.Config, cond Condition, v Variant) ssd.Config {
	if cond.Device != "" {
		// Re-base the cell on the named preset before installing the
		// condition: Apply changes only the cell-level fields (geometry
		// bits, error-model calibration, ECC strength), so the sweep's
		// scale, timing, and scheme knobs still come from Base.
		base = cond.Device.Apply(base)
	}
	base.Scheme = v.Scheme
	base.UsePSO = v.PSO
	base.UseRetryHistory = v.History
	base.PEC = cond.PEC
	base.RetentionMonths = cond.Months
	if cond.TempC != 0 {
		base.TempC = cond.TempC
	}
	return base
}

// cells selects measurements by configuration name.
func (r *Result) cells(config string) []Cell {
	var out []Cell
	for _, c := range r.Cells {
		if c.Config == config {
			out = append(out, c)
		}
	}
	return out
}

// condKey identifies one (workload, condition) pair exactly. The summary
// statistics below index reference means by it; the concatenated-string
// key they previously used ("a" + "11K/2mo" vs "a1" + "1K/2mo") could
// collide across distinct pairs and silently mix up reference values.
type condKey struct {
	wl   string
	cond Condition
}

// meansBy indexes a configuration's mean response times by exact
// (workload, condition).
func (r *Result) meansBy(config string) map[condKey]float64 {
	m := make(map[condKey]float64)
	for _, c := range r.cells(config) {
		m[condKey{c.Workload, c.Cond}] = c.Mean
	}
	return m
}

// Reduction returns the response-time reduction of config vs the reference
// configuration across matching cells: (avg, max), both as fractions.
func (r *Result) Reduction(config, reference string, readDominantOnly bool) (avg, max float64) {
	if readDominantOnly {
		return r.ReductionWhere(config, reference, func(s workload.Spec) bool {
			return s.ReadDominant()
		})
	}
	return r.ReductionWhere(config, reference, func(workload.Spec) bool { return true })
}

// ReductionWhere is Reduction restricted to workloads matching the filter
// (e.g. the paper's read-dominant / write-dominant split in §7.3).
func (r *Result) ReductionWhere(config, reference string, keep func(workload.Spec) bool) (avg, max float64) {
	ref := r.meansBy(reference)
	var stats mathx.Running
	for _, c := range r.cells(config) {
		spec, err := workload.ByName(c.Workload)
		if err != nil || !keep(spec) {
			continue
		}
		base, ok := ref[condKey{c.Workload, c.Cond}]
		if !ok || base == 0 {
			continue
		}
		stats.Add(1 - c.Mean/base)
	}
	return stats.Mean(), stats.Max()
}

// RatioToNoRR returns the average ratio of config's response time to the
// ideal NoRR device (the paper's "2.37× NoRR" style statistics).
func (r *Result) RatioToNoRR(config string, readDominantOnly bool) float64 {
	ideal := r.meansBy("NoRR")
	var stats mathx.Running
	for _, c := range r.cells(config) {
		if readDominantOnly {
			spec, err := workload.ByName(c.Workload)
			if err != nil || !spec.ReadDominant() {
				continue
			}
		}
		id := ideal[condKey{c.Workload, c.Cond}]
		if id > 0 {
			stats.Add(c.Mean / id)
		}
	}
	return stats.Mean()
}

// GapClosed returns how much of the Baseline→NoRR response-time gap the
// configuration closes on average (§7.2 reports 41 % for PnAR²).
func (r *Result) GapClosed(config string) float64 {
	base := r.meansBy("Baseline")
	ideal := r.meansBy("NoRR")
	var stats mathx.Running
	for _, c := range r.cells(config) {
		key := condKey{c.Workload, c.Cond}
		b, i := base[key], ideal[key]
		if b <= i {
			continue
		}
		stats.Add((b - c.Mean) / (b - i))
	}
	return stats.Mean()
}

// ReductionAt returns config's average reduction vs reference restricted to
// one condition (the paper quotes (2K, 6 mo)).
func (r *Result) ReductionAt(config, reference string, cond Condition) float64 {
	ref := r.meansBy(reference)
	var stats mathx.Running
	for _, c := range r.cells(config) {
		if c.Cond != cond {
			continue
		}
		if base, ok := ref[condKey{c.Workload, cond}]; ok && base > 0 {
			stats.Add(1 - c.Mean/base)
		}
	}
	return stats.Mean()
}

// TempReduction is one row of ReductionByTemp: config's response-time
// reduction over the reference across every cell measured at one operating
// temperature. TempC 0 groups the cells that ran at the device default
// (a temperature-less grid has exactly one such row).
type TempReduction struct {
	TempC float64
	Avg   float64
	Max   float64
}

// ReductionByTemp returns the response-time reduction of config vs the
// reference grouped by the condition grid's temperature axis, coldest
// first — how much each scheme's win shifts from e.g. 25 °C to 85 °C
// (low temperature is where the error model adds floor errors and timing
// penalties, so threshold-tuning schemes differentiate most there).
func (r *Result) ReductionByTemp(config, reference string) []TempReduction {
	temps, groups := reductionGroups(r, config, reference, func(c Condition) float64 { return c.TempC })
	out := make([]TempReduction, 0, len(temps))
	for _, t := range temps {
		out = append(out, TempReduction{TempC: t, Avg: groups[t].Mean(), Max: groups[t].Max()})
	}
	return out
}

// DeviceReduction is one row of ReductionByDevice: config's response-time
// reduction over the reference across every cell measured on one device
// preset. An empty Device groups the cells that ran on the Base template
// (a single-device grid has exactly one such row).
type DeviceReduction struct {
	Device ssd.Device
	Avg    float64
	Max    float64
}

// ReductionByDevice returns the response-time reduction of config vs the
// reference grouped by the condition grid's device axis, in preset name
// order — the summary a TLC-vs-QLC sweep exists to produce: how much more
// (or less) a retry-optimization scheme is worth on a device whose margins
// are thinner and whose drift is steeper.
func (r *Result) ReductionByDevice(config, reference string) []DeviceReduction {
	devs, groups := reductionGroups(r, config, reference, func(c Condition) ssd.Device { return c.Device })
	out := make([]DeviceReduction, 0, len(devs))
	for _, d := range devs {
		out = append(out, DeviceReduction{Device: d, Avg: groups[d].Mean(), Max: groups[d].Max()})
	}
	return out
}

// reductionGroups is the grouping behind ReductionByTemp and
// ReductionByDevice: config's per-cell response-time reduction vs the
// reference, accumulated per axis key of the cell's condition. It returns
// the keys in ascending order with each key's statistics.
func reductionGroups[K cmp.Ordered](r *Result, config, reference string, key func(Condition) K) ([]K, map[K]*mathx.Running) {
	ref := r.meansBy(reference)
	groups := map[K]*mathx.Running{}
	var keys []K
	for _, c := range r.cells(config) {
		base, ok := ref[condKey{c.Workload, c.Cond}]
		if !ok || base == 0 {
			continue
		}
		k := key(c.Cond)
		s := groups[k]
		if s == nil {
			s = &mathx.Running{}
			groups[k] = s
			keys = append(keys, k)
		}
		s.Add(1 - c.Mean/base)
	}
	slices.Sort(keys)
	return keys, groups
}

// Render writes the sweep as an aligned text table: one row per
// (workload, condition), one column per configuration, normalized values.
func (r *Result) Render(w io.Writer) {
	type key struct {
		wl   string
		cond Condition
	}
	rows := map[key]map[string]float64{}
	var keys []key
	for _, c := range r.Cells {
		k := key{c.Workload, c.Cond}
		if rows[k] == nil {
			rows[k] = map[string]float64{}
			keys = append(keys, k)
		}
		rows[k][c.Config] = c.Normalized
	}
	sort.SliceStable(keys, func(i, j int) bool {
		if keys[i].wl != keys[j].wl {
			return workloadOrder(keys[i].wl) < workloadOrder(keys[j].wl)
		}
		if keys[i].cond.PEC != keys[j].cond.PEC {
			return keys[i].cond.PEC < keys[j].cond.PEC
		}
		if keys[i].cond.Months != keys[j].cond.Months {
			return keys[i].cond.Months < keys[j].cond.Months
		}
		if keys[i].cond.TempC != keys[j].cond.TempC {
			return keys[i].cond.TempC < keys[j].cond.TempC
		}
		return keys[i].cond.Device < keys[j].cond.Device
	})
	// The condition column widens only when a label needs it (temperature
	// suffixes), so temperature-less tables render exactly as before.
	condW := 9
	for _, k := range keys {
		if n := len(k.cond.String()); n > condW {
			condW = n
		}
	}
	fmt.Fprintf(w, "%-10s %-*s", "workload", condW, "cond")
	for _, cfg := range r.Configs {
		fmt.Fprintf(w, " %10s", cfg)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 11+condW+11*len(r.Configs)))
	for _, k := range keys {
		fmt.Fprintf(w, "%-10s %-*s", k.wl, condW, k.cond.String())
		for _, cfg := range r.Configs {
			fmt.Fprintf(w, " %10.3f", rows[k][cfg])
		}
		fmt.Fprintln(w)
	}
}

func workloadOrder(name string) int {
	for i, n := range workload.Names() {
		if n == name {
			return i
		}
	}
	return len(workload.Names())
}

// WriteCSV emits the raw cells as CSV (one measurement per row) for
// external plotting: workload, pec, months, config, mean_us, mean_read_us,
// p99_read_us, normalized, retry_steps — with a temp_c column after months
// iff any cell carries an explicit operating temperature, and a device
// column after that iff any cell carries an explicit device preset, so
// single-device temperature-less grids keep their historical byte-exact
// schema. It renders through the same encoder as the streaming CSVSink,
// whose output is byte-identical for the same grid.
func (r *Result) WriteCSV(w io.Writer) error { return writeCSV(w, r.Cells, false) }

// WriteMetricsCSV emits the per-cell retry-metrics CSV from a completed
// Result: WriteCSV's axis columns, then retrymetrics.CSVColumns — the
// buffered counterpart of NewMetricsCSVSinkFor's sink. Every cell must
// carry a retry digest (the sweep ran with Base.RetryMetrics).
func (r *Result) WriteMetricsCSV(w io.Writer) error { return writeCSV(w, r.Cells, true) }
