// Package ssd is the system-level SSD simulator of §7: a multi-queue,
// event-driven model of a modern NVMe SSD in the spirit of MQSim, extended
// exactly the way the paper extends it — every simulated block behaves like
// a characterized model block, reproducing realistic read-retry behaviour
// for its (P/E cycles, retention age) state.
//
// The baseline device implements the high-end features §7.2 prescribes:
// out-of-order transaction scheduling with read priority, program/erase
// suspension, per-channel DMA and ECC engines, page-level FTL with greedy
// garbage collection and wear-aware allocation. Read-retry handling is
// pluggable via internal/core's controllers (Baseline, PR², AR², PnAR²,
// NoRR) plus the PSO step-reduction baseline.
package ssd

import (
	"fmt"
	"math"

	"readretry/internal/core"
	"readretry/internal/nand"
	"readretry/internal/rpt"
	"readretry/internal/vth"
)

// Config assembles one simulated SSD.
type Config struct {
	// Channels and DiesPerChannel set the device parallelism (§7.1: 4×4).
	Channels       int
	DiesPerChannel int
	// Geometry describes one die (Dies must be 1; the SSD composes them).
	Geometry nand.Geometry
	// Timing is the chip timing (Table 1) plus the per-channel ECC
	// engine's decode latency tECC.
	Timing nand.Timing
	// VthParams select the NAND error model; Seed the process variation.
	VthParams vth.Params
	Seed      uint64

	// Scheme picks the read-retry controller; UsePSO layers the MICRO'19
	// step-reduction baseline under it (§7.3).
	Scheme core.Scheme
	UsePSO bool

	// PEC and RetentionMonths precondition every block — the operating
	// condition axis of Figures 14 and 15. TempC is the ambient
	// temperature reads execute at; the sweep engine overrides it per cell
	// when a condition carries an explicit temperature, making the grid
	// three-dimensional. It must lie within the industrial range the error
	// model is calibrated for ([-40, 125] °C).
	PEC             int
	RetentionMonths float64
	TempC           float64

	// PreconditionPages maps LPNs [0, PreconditionPages) as pre-existing
	// cold data before the run, filling the device to a realistic
	// utilization so that write streams exercise garbage collection (the
	// standard SSD-evaluation preconditioning step). Preconditioned pages
	// carry the configured (PEC, RetentionMonths) state.
	PreconditionPages int64

	// GCThresholdBlocks triggers collection when a plane's free pool drops
	// to it. Read priority and program/erase suspension, the baseline's
	// advanced scheduling features (§7.2), are always on.
	GCThresholdBlocks int

	// RPT configures AR²'s profiling (margin, buckets).
	RPT rpt.Config

	// ReducedRegularReads enables the §8 extension "Latency Reduction for
	// Regular Reads": the RPT's safe tPRE reduction is applied to the
	// *initial* sensing of every read, not only to retry steps. The safety
	// argument is the same as AR²'s — a read that would succeed at default
	// V_REF has only the floor errors, which the RPT margin already
	// bounds. Requires an adaptive scheme (AR² or PnAR²).
	ReducedRegularReads bool

	// UseDriftPredictor enables the §8 extension "Further Reduction of
	// Read-Retry Latency": an error-model-based predictor estimates the
	// block's expected V_OPT drift and starts the retry ladder near the
	// predicted position instead of walking from the default V_REF, in
	// the spirit of the Sentinel concurrent work [56]. Reads that need no
	// retry are unaffected.
	UseDriftPredictor bool

	// RetryMetrics enables the per-physical-address retry accounting layer
	// (internal/ssd/retrymetrics): per-block retry-step histograms, latency
	// attribution, and hottest-page tracking, digested into Stats.Retry at
	// the end of the run. Strictly observational — simulated timing and
	// every existing statistic are bit-identical with it on or off.
	RetryMetrics bool

	// UseRetryHistory enables the history-aware retry policy: each block's
	// last successful read's ladder position seeds the next read's starting
	// level, the natural extension of the paper's PR mechanism (§8's
	// forward pointer) — per-block history instead of per-group caching
	// (PSO) or model prediction (UseDriftPredictor). A read whose history
	// hits pays |N_RR − predicted| + 1 steps, never more than the cold walk.
	UseRetryHistory bool

	// DisableReadFastPath routes every read through the reference path —
	// direct model evaluation, a plan built per read, and an executor
	// firing one event per plan op — instead of memoized profiles and
	// plans and the pooled executor. Results are bit-identical either way;
	// the differential tests compare the two over the full Figure 14 grid.
	DisableReadFastPath bool
}

// DefaultConfig returns the paper's full-size SSD (§7.1): 512 GiB over
// 4 channels × 4 dies × 2 planes × 1,888 blocks × 576 × 16-KiB pages.
func DefaultConfig() Config {
	return Config{
		Channels:          4,
		DiesPerChannel:    4,
		Geometry:          nand.DefaultGeometry(),
		Timing:            nand.DefaultTiming(),
		VthParams:         vth.DefaultParams(),
		Seed:              1,
		Scheme:            core.Baseline,
		TempC:             30,
		GCThresholdBlocks: 12,
		RPT:               rpt.DefaultConfig(),
	}
}

// ExperimentConfig returns a proportionally scaled-down device (64 blocks
// per plane instead of 1,888) that preserves the paper SSD's parallelism,
// timing, and per-block behaviour while letting a workload exercise garbage
// collection within a tractable run. Figures 14/15 are produced with this
// configuration.
func ExperimentConfig() Config {
	cfg := DefaultConfig()
	cfg.Geometry.BlocksPerPlane = 64
	cfg.GCThresholdBlocks = 4
	cfg.PreconditionPages = cfg.TotalPages() * 7 / 10
	return cfg
}

// Dies returns the total die count.
func (c Config) Dies() int { return c.Channels * c.DiesPerChannel }

// TotalPages returns the device's physical page count.
func (c Config) TotalPages() int64 {
	return int64(c.Dies()) * int64(c.Geometry.PagesPerDie())
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Channels < 1 || c.DiesPerChannel < 1 {
		return fmt.Errorf("ssd: need at least one channel and die, got %d×%d",
			c.Channels, c.DiesPerChannel)
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.Geometry.Dies != 1 {
		return fmt.Errorf("ssd: per-die geometry must have Dies=1, got %d", c.Geometry.Dies)
	}
	if c.Timing.TECC < 0 {
		return fmt.Errorf("ssd: negative tECC %v", c.Timing.TECC)
	}
	if err := c.VthParams.Validate(); err != nil {
		return err
	}
	if g, m := c.Geometry.CellKind(), c.VthParams.Kind(); g != m {
		return fmt.Errorf("ssd: geometry is %v but the error model is calibrated for %v", g, m)
	}
	if c.GCThresholdBlocks < 1 || c.GCThresholdBlocks >= c.Geometry.BlocksPerPlane {
		return fmt.Errorf("ssd: GC threshold %d outside (0, %d)",
			c.GCThresholdBlocks, c.Geometry.BlocksPerPlane)
	}
	if err := c.RPT.Validate(); err != nil {
		return err
	}
	if math.IsNaN(c.TempC) || c.TempC < -40 || c.TempC > 125 {
		return fmt.Errorf("ssd: TempC %g°C outside the calibrated [-40, 125] range", c.TempC)
	}
	if c.PEC < 0 || c.RetentionMonths < 0 ||
		math.IsNaN(c.RetentionMonths) || math.IsInf(c.RetentionMonths, 0) {
		return fmt.Errorf("ssd: invalid operating condition (PEC %d, %g months)",
			c.PEC, c.RetentionMonths)
	}
	if c.ReducedRegularReads && !c.Scheme.Adaptive() {
		return fmt.Errorf("ssd: ReducedRegularReads requires an adaptive scheme (AR2/PnAR2), got %v", c.Scheme)
	}
	// Each policy picks where a retried read's ladder walk starts, and a
	// read starts in one place: a second policy would be silently ignored.
	starts := 0
	for _, on := range []bool{c.UsePSO, c.UseDriftPredictor, c.UseRetryHistory} {
		if on {
			starts++
		}
	}
	if starts > 1 {
		return fmt.Errorf("ssd: UsePSO (%t), UseDriftPredictor (%t) and UseRetryHistory (%t) each pick a read's ladder start; enable at most one",
			c.UsePSO, c.UseDriftPredictor, c.UseRetryHistory)
	}
	return nil
}
