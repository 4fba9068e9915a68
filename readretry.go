// Package readretry is a from-scratch reproduction of "Reducing Solid-State
// Drive Read Latency by Optimizing Read-Retry" (Park et al., ASPLOS 2021).
//
// The paper proposes two SSD-controller techniques that shorten read-retry
// operations without reducing how many retry steps a read needs:
//
//   - PR² (Pipelined Read-Retry) overlaps consecutive retry steps with the
//     CACHE READ command, removing data transfer and ECC decoding from the
//     retry critical path.
//   - AR² (Adaptive Read-Retry) exploits the large ECC-capability margin of
//     the final retry step to shorten the page-sensing latency tR, choosing
//     a safe tPRE reduction per operating condition from a profiled
//     Read-timing Parameter Table (RPT).
//
// This package is the public facade over the full reproduction stack:
//
//   - a calibrated 3D TLC NAND error model standing in for the paper's 160
//     characterized chips (NewChipModel, NewLab);
//   - the characterization experiments behind Figures 4b, 5, 7–11 (Lab);
//   - RPT profiling (ProfileRPT);
//   - the read-retry controllers themselves (Scheme, BuildPlan);
//   - an MQSim-style multi-queue SSD simulator (NewSSD) and the Figure
//     14/15 system-level sweeps (RunSweep with Figure14Variants or
//     Figure15Variants), shardable with bit-identical merges through an
//     in-process sweep coordinator (NewSweepCoordinator, RunShard);
//     cmd/repro's -serve, -worker and -submit flags run the same
//     coordinator across processes;
//   - the twelve Table 2 workload generators (Workloads, NewWorkload).
//
// The facade names only what a caller writes and what its functions take
// or return. Values reached through those, such as the statistics SSD.Run
// returns or a SweepResult's reduction rows, are used through their fields
// and methods without a facade name of their own.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results versus the paper's.
package readretry

import (
	"context"
	"io"

	"readretry/internal/charz"
	"readretry/internal/core"
	"readretry/internal/experiments"
	"readretry/internal/experiments/cellcache"
	"readretry/internal/experiments/coord"
	"readretry/internal/experiments/shard"
	"readretry/internal/nand"
	"readretry/internal/rpt"
	"readretry/internal/ssd"
	"readretry/internal/vth"
	"readretry/internal/workload"
)

// Scheme selects a read-retry controller configuration (§7.2).
type Scheme = core.Scheme

// The five evaluated configurations.
const (
	Baseline = core.Baseline // regular read-retry (Figure 12a)
	PR2      = core.PR2      // Pipelined Read-Retry (Figure 12b)
	AR2      = core.AR2      // Adaptive Read-Retry (Figure 13)
	PnAR2    = core.PnAR2    // both combined
	NoRR     = core.NoRR     // ideal SSD without read-retry
)

// ParseScheme converts a configuration name to a Scheme.
func ParseScheme(name string) (Scheme, error) { return core.ParseScheme(name) }

// Plan building (the controllers' operation trees) for direct latency
// analysis, as in Figures 12 and 13.
type (
	// Plan is a controller's operation tree for one page read.
	Plan = core.Plan
	// StepTimings carries the per-operation latencies plans compose.
	StepTimings = core.StepTimings
	// ControllerOptions toggles the ablation variants.
	ControllerOptions = core.Options
)

// BuildPlan constructs the operation tree for a read needing nrr retry steps.
func BuildPlan(s Scheme, nrr int, t StepTimings, opts ControllerOptions) Plan {
	return core.BuildPlan(s, nrr, t, opts)
}

// PaperStepTimings returns Table 1's timings with the average tR and the
// worst-case-safe 40 % tPRE reduction.
func PaperStepTimings() StepTimings { return experiments.PaperTimings() }

// Chip-model layer.
type (
	// ChipParams are the calibrated NAND error-model constants.
	ChipParams = vth.Params
	// Condition is an operating condition (P/E cycles, retention,
	// temperature).
	Condition = vth.Condition
)

// ChipModel evaluates the calibrated error model directly: per-page drift,
// final-step error floors, and timing-reduction penalties.
type ChipModel = vth.Model

// CSBPage is the TLC center page: it senses three read levels and bounds
// the error envelope.
const CSBPage = nand.CSB

// Device names a preset cell-level device configuration the sweeps can
// run on: geometry, error-model calibration, and ECC strength.
type Device = ssd.Device

// The supported device presets.
const (
	// DeviceTLC is the paper's 3D TLC device (the default template).
	DeviceTLC = ssd.DeviceTLC
	// DeviceQLC16 is a 16-level QLC device: steeper drift, thinner
	// margins, a longer retry ladder, and LDPC-class ECC.
	DeviceQLC16 = ssd.DeviceQLC16
)

// NewChipModel builds an error model over params with the given
// process-variation seed.
func NewChipModel(params ChipParams, seed uint64) *ChipModel {
	return vth.NewModel(params, seed)
}

// DefaultChipParams returns the model calibrated to the paper's 160-chip
// characterization (DESIGN.md §4 lists the anchors).
func DefaultChipParams() ChipParams { return vth.DefaultParams() }

// Characterization laboratory (Figures 4b, 5, 7–11).
type Lab = charz.Lab

// NewLab builds a characterization lab over the default 160-chip fleet,
// sampling sampleReads pages per measured condition.
func NewLab(sampleReads int, seed uint64) *Lab { return charz.DefaultLab(sampleReads, seed) }

// RPT profiling (AR²'s Read-timing Parameter Table, §6.2).
type (
	// RPT is the profiled table.
	RPT = rpt.Table
	// RPTConfig controls profiling (buckets, margin).
	RPTConfig = rpt.Config
)

// DefaultRPTConfig returns the paper's profiling setup: 36 buckets, 14-bit
// safety margin.
func DefaultRPTConfig() RPTConfig { return rpt.DefaultConfig() }

// ProfileRPT profiles a table for the chip population identified by params
// and seed.
func ProfileRPT(params ChipParams, seed uint64, cfg RPTConfig) (*RPT, error) {
	return rpt.Profile(vth.NewModel(params, seed), cfg)
}

// SSD simulation.
type (
	// SSD is one simulated multi-queue device.
	SSD = ssd.SSD
	// SSDConfig assembles a device.
	SSDConfig = ssd.Config
)

// ExperimentSSDConfig returns the proportionally scaled device the
// reproduction sweeps use.
func ExperimentSSDConfig() SSDConfig { return ssd.ExperimentConfig() }

// NewSSD builds a device.
func NewSSD(cfg SSDConfig) (*SSD, error) { return ssd.New(cfg) }

// Workloads.
type (
	// WorkloadSpec describes one Table 2 workload.
	WorkloadSpec = workload.Spec
	// WorkloadGenerator produces a deterministic request stream.
	WorkloadGenerator = workload.Generator
)

// Workloads returns the twelve Table 2 workloads.
func Workloads() []WorkloadSpec { return workload.Table2() }

// WorkloadByName returns one Table 2 workload.
func WorkloadByName(name string) (WorkloadSpec, error) { return workload.ByName(name) }

// NewWorkload builds a generator for a spec.
func NewWorkload(spec WorkloadSpec, seed uint64) *WorkloadGenerator {
	return workload.NewGenerator(spec, seed)
}

// System-level sweeps (Figures 14 and 15).
type (
	// SweepConfig parameterizes a Figure 14/15 sweep, including the
	// engine's Parallelism bound and Progress callback.
	SweepConfig = experiments.Config
	// SweepResult holds the measured cells and summary statistics.
	SweepResult = experiments.Result
	// SweepCondition is one (PEC, retention, temperature, device)
	// evaluation point; TempC 0 inherits the device template's
	// temperature, Device "" the base template itself.
	SweepCondition = experiments.Condition
	// SweepVariant is one configuration column of a sweep.
	SweepVariant = experiments.Variant
	// SweepCell is one measured (workload, condition, configuration) cell.
	SweepCell = experiments.Cell
	// SweepCellSinkFunc adapts a function to a cell sink
	// (SweepConfig.Sink), which receives cells in canonical order as the
	// engine releases them — the streaming counterpart of consuming
	// SweepResult.Cells after the fact.
	SweepCellSinkFunc = experiments.CellSinkFunc
	// SweepCSVSink streams cells as CSV rows — the sweep CSV or the
	// retry-metrics CSV — byte-identical to SweepResult.WriteCSV (or
	// WriteMetricsCSV) for the same grid.
	SweepCSVSink = experiments.CSVSink
	// SweepCache is the content-addressed per-cell measurement cache
	// RunSweep consults (SweepConfig.Cache): re-running a grown grid only
	// simulates new cells.
	SweepCache = cellcache.Cache
)

// NewSweepCSVSinkFor writes the CSV header to w and returns a sink that
// streams one row per cell as the sweep releases it (SweepConfig.Sink).
// The schema follows the sweep configuration: grids that sweep temperature
// (SweepConfig.Temps or per-condition TempC) gain a temp_c column and
// grids that sweep devices (SweepConfig.Devices or per-condition Device) a
// device column, matching what the buffered SweepResult.WriteCSV emits for
// the same grid.
func NewSweepCSVSinkFor(cfg SweepConfig, w io.Writer) (*SweepCSVSink, error) {
	return experiments.NewCSVSinkFor(cfg, w)
}

// NewSweepMetricsCSVSinkFor is NewSweepCSVSinkFor for the per-cell
// retry-metrics CSV (requires SweepConfig.Base.RetryMetrics), byte-identical
// to SweepResult.WriteMetricsCSV for the same grid.
func NewSweepMetricsCSVSinkFor(cfg SweepConfig, w io.Writer) (*SweepCSVSink, error) {
	return experiments.NewMetricsCSVSinkFor(cfg, w)
}

// NewSweepCache returns an in-memory per-cell cache, living as long as
// the process.
func NewSweepCache() SweepCache { return cellcache.Memory() }

// NewDiskSweepCache returns a per-cell cache persisted under dir (created
// if absent) with an in-memory tier on top: a second identical sweep —
// even from a new process — performs zero simulations.
func NewDiskSweepCache(dir string) (SweepCache, error) { return cellcache.Disk(dir) }

// DefaultSweepConfig returns the full Figure 14/15 sweep.
func DefaultSweepConfig() SweepConfig { return experiments.DefaultConfig() }

// QuickSweepConfig returns a reduced sweep for quick runs.
func QuickSweepConfig() SweepConfig { return experiments.QuickConfig() }

// Figure14Variants returns the five §7.2 configurations in presentation
// order.
func Figure14Variants() []SweepVariant { return experiments.Figure14Variants() }

// Figure15Variants returns the PSO comparison columns.
func Figure15Variants() []SweepVariant { return experiments.Figure15Variants() }

// Sweep sharding: the work units a coordinator leases out.
type (
	// SweepShardManifest is one shard's work unit: the sweep's config hash
	// and the shard's index and count in the round-robin plan, from which
	// its Cells method derives the cell indices. It travels inside each
	// SweepLease.
	SweepShardManifest = shard.Manifest
	// SweepShardRecord is a shard's completion record: its manifest plus
	// every assigned cell's raw measurement, delivered to a coordinator
	// with SweepCoordinator.Complete.
	SweepShardRecord = shard.Record
)

// RunShard executes one shard through the sweep engine and returns its
// completion record: only the manifest's cells are simulated (cfg.Cache
// hits are reused, making interrupted shards resumable). The manifest
// must have been planned for exactly this cfg and variants — a
// config-hash mismatch is refused before any simulation.
func RunShard(ctx context.Context, cfg SweepConfig, variants []SweepVariant, m SweepShardManifest) (*SweepShardRecord, error) {
	return shard.Run(ctx, cfg, variants, m, "")
}

// RunSweep executes an arbitrary (workload × condition × variant) grid on
// the parallel sweep engine — three-dimensional when SweepConfig.Temps
// crosses the conditions with a temperature axis: cells fan out over a
// worker pool bounded by cfg.Parallelism, each workload's trace is
// generated once and shared, and the result is bit-identical to a serial
// run of the same cfg. ctx cancels the sweep; cfg.Progress observes
// completed cells. cfg.Sink streams the cells themselves in canonical
// order as their stripes complete (see NewSweepCSVSinkFor), and cfg.Cache
// (see NewSweepCache, NewDiskSweepCache) skips simulation for every cell
// whose content-addressed measurement is already known.
func RunSweep(ctx context.Context, cfg SweepConfig, variants []SweepVariant) (*SweepResult, error) {
	return experiments.RunSweep(ctx, cfg, variants)
}

// In-process sweep coordination: the shard work queue that cmd/repro's
// -serve, -worker and -submit modes serve over HTTP. The merged result is
// bit-identical to a single-process RunSweep.
type (
	// SweepCoordinator owns the shard work queue: it leases shards to
	// workers, expires leases whose heartbeats stop, merges completion
	// records incrementally, and finalizes each job into a SweepResult.
	SweepCoordinator = coord.Coordinator
	// SweepCoordinatorOptions configures a coordinator (lease TTL, shared
	// cell cache, injectable clock).
	SweepCoordinatorOptions = coord.Options
	// SweepSpec is the self-contained wire form of one sweep submission:
	// everything a worker needs to rebuild the SweepConfig and variants.
	SweepSpec = coord.Spec
	// SweepLease is one granted shard: manifest, spec, TTL, and deadline.
	SweepLease = coord.Lease
)

// NewSweepCoordinator builds an in-process coordinator.
func NewSweepCoordinator(opts SweepCoordinatorOptions) *SweepCoordinator { return coord.New(opts) }

// SweepSpecOf captures a sweep configuration and variants as the wire Spec
// a coordinator submission carries.
func SweepSpecOf(cfg SweepConfig, variants []SweepVariant) SweepSpec {
	return coord.SpecOf(cfg, variants)
}
