package ssd

import (
	"math"
	"testing"

	"readretry/internal/core"
	"readretry/internal/ftl"
	"readretry/internal/mathx"
)

// Tests for the §8 "Discussion" extensions: reduced-timing regular reads
// and the model-guided drift predictor.

func TestReducedRegularReadsRequiresAdaptiveScheme(t *testing.T) {
	cfg := tinyConfig()
	cfg.ReducedRegularReads = true // Scheme is Baseline
	if cfg.Validate() == nil {
		t.Error("ReducedRegularReads with Baseline should fail validation")
	}
	cfg.Scheme = core.PnAR2
	if err := cfg.Validate(); err != nil {
		t.Errorf("PnAR2 + ReducedRegularReads should validate: %v", err)
	}
}

func TestReducedRegularReadsSpeedUpCleanReads(t *testing.T) {
	// On a young device (no retries) the extension shortens every read's
	// sensing; plain AR² would change nothing.
	cfg := tinyConfig()
	cfg.Scheme = core.AR2
	cfg.PEC, cfg.RetentionMonths = 250, 0.2 // young: almost no retries
	plain := runWorkload(t, cfg, "YCSB-C", 1200, 800)
	cfg.ReducedRegularReads = true
	reduced := runWorkload(t, cfg, "YCSB-C", 1200, 800)

	if plain.MeanRetrySteps() > 0.5 {
		t.Skip("condition not young enough for a clean-read comparison")
	}
	if reduced.MeanRead() >= plain.MeanRead() {
		t.Errorf("reduced regular reads: %.0f µs, plain AR2: %.0f µs — extension should win",
			reduced.MeanRead(), plain.MeanRead())
	}
	// ≈25 % shorter tR on a 126 µs read ≈ 22 µs; queueing amplifies it.
	gain := 1 - reduced.MeanRead()/plain.MeanRead()
	if gain < 0.08 || gain > 0.40 {
		t.Errorf("clean-read gain = %.1f%%, expected near the ~18%% service-time cut", gain*100)
	}
	if reduced.RegReadSetFeatures == 0 {
		t.Error("extension active but no SET FEATURE issued")
	}
}

func TestReducedRegularReadsKeepRetryCountsUnchanged(t *testing.T) {
	// The RPT margin guarantees the reduction never adds retry steps.
	cfg := tinyConfig()
	cfg.Scheme = core.PnAR2
	cfg.PEC, cfg.RetentionMonths = 2000, 12
	plain := runWorkload(t, cfg, "YCSB-C", 800, 300)
	cfg.ReducedRegularReads = true
	reduced := runWorkload(t, cfg, "YCSB-C", 800, 300)
	if plain.MeanRetrySteps() != reduced.MeanRetrySteps() {
		t.Errorf("extension changed N_RR: %.2f vs %.2f",
			plain.MeanRetrySteps(), reduced.MeanRetrySteps())
	}
	if reduced.AR2Fallbacks != 0 {
		t.Errorf("extension caused %d fallbacks", reduced.AR2Fallbacks)
	}
	if reduced.MeanRead() >= plain.MeanRead() {
		t.Error("extension should still shorten aged reads (initial sensing included)")
	}
}

func TestDriftPredictorCutsRetrySteps(t *testing.T) {
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 2000, 12
	plain := runWorkload(t, cfg, "YCSB-C", 800, 300)
	cfg.UseDriftPredictor = true
	pred := runWorkload(t, cfg, "YCSB-C", 800, 300)
	if pred.MeanRetrySteps() >= plain.MeanRetrySteps()/2 {
		t.Errorf("predictor mean N_RR = %.2f vs %.2f plain; expected a large cut",
			pred.MeanRetrySteps(), plain.MeanRetrySteps())
	}
	if pred.PredictorReads == 0 {
		t.Error("predictor never used")
	}
	// The predictor can beat PSO's 3-step floor (it needs no warm cache)
	// but not the physics: at least one step per retried read.
	if pred.MeanRetrySteps() < 1 {
		t.Errorf("predictor mean N_RR = %.2f — below the 1-step floor", pred.MeanRetrySteps())
	}
	if pred.MeanRead() >= plain.MeanRead() {
		t.Error("fewer steps should mean faster reads")
	}
}

func TestDriftPredictorBeatsPSOWithoutWarmup(t *testing.T) {
	// PSO needs a prior read-retry in the similarity group; the model-based
	// predictor works from the first read. On a short run the predictor's
	// mean step count should be at least as good.
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 2000, 12
	cfg.UsePSO = true
	pso := runWorkload(t, cfg, "YCSB-C", 400, 300)
	cfg.UsePSO = false
	cfg.UseDriftPredictor = true
	pred := runWorkload(t, cfg, "YCSB-C", 400, 300)
	if pred.MeanRetrySteps() > pso.MeanRetrySteps() {
		t.Errorf("predictor N_RR %.2f should not trail PSO %.2f on a cold run",
			pred.MeanRetrySteps(), pso.MeanRetrySteps())
	}
}

func TestDriftPredictorLeavesCleanReadsAlone(t *testing.T) {
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 0, 0
	cfg.UseDriftPredictor = true
	st := runWorkload(t, cfg, "YCSB-C", 600, 800)
	if st.MeanRetrySteps() != 0 {
		t.Errorf("fresh device N_RR = %.2f with predictor, want 0", st.MeanRetrySteps())
	}
	if st.PredictorReads != 0 {
		t.Error("predictor should not engage on clean reads")
	}
}

// --- utilization statistics -------------------------------------------------

func TestUtilizationStatistics(t *testing.T) {
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 1000, 6
	st := runWorkload(t, cfg, "YCSB-B", 2000, 1500)
	dieU := st.DieUtilization()
	chU := st.ChannelUtilization()
	if dieU <= 0 || dieU > 1 {
		t.Errorf("die utilization = %.3f, want (0, 1]", dieU)
	}
	if chU <= 0 || chU > 1 {
		t.Errorf("channel utilization = %.3f, want (0, 1]", chU)
	}
	// Retry-heavy reads occupy dies much longer than the bus.
	if dieU <= chU {
		t.Errorf("die utilization (%.3f) should exceed channel utilization (%.3f)", dieU, chU)
	}
}

func TestUtilizationDropsWithPnAR2(t *testing.T) {
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 2000, 6
	base := runWorkload(t, cfg, "YCSB-C", 1000, 400)
	cfg.Scheme = core.PnAR2
	both := runWorkload(t, cfg, "YCSB-C", 1000, 400)
	if both.DieUtilization() >= base.DieUtilization() {
		t.Errorf("PnAR2 die utilization %.3f should be below Baseline's %.3f",
			both.DieUtilization(), base.DieUtilization())
	}
}

func TestUtilizationZeroSafe(t *testing.T) {
	var st Stats
	if st.DieUtilization() != 0 || st.ChannelUtilization() != 0 {
		t.Error("zero-value stats should report zero utilization")
	}
}

func TestRetryStepHistogram(t *testing.T) {
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 1000, 6
	st := runWorkload(t, cfg, "YCSB-C", 800, 400)
	var total int64
	weighted := 0.0
	for n, c := range st.RetryHistogram {
		total += c
		weighted += float64(n) * float64(c)
	}
	if total != st.RetrySteps.N() {
		t.Errorf("histogram total %d != sample count %d", total, st.RetrySteps.N())
	}
	if mean := weighted / float64(total); math.Abs(mean-st.MeanRetrySteps()) > 1e-9 {
		t.Errorf("histogram mean %v != running mean %v", mean, st.MeanRetrySteps())
	}
	p50 := mathx.PercentileHistogram(st.RetryHistogram, 50)
	p99 := mathx.PercentileHistogram(st.RetryHistogram, 99)
	if p50 > p99 {
		t.Errorf("p50 (%g) above p99 (%g)", p50, p99)
	}
	if p99 >= float64(len(st.RetryHistogram)) {
		t.Errorf("p99 %g outside histogram of %d bins", p99, len(st.RetryHistogram))
	}
	// The pre-sized histogram's empty tail must not leak into p=100: the
	// maximum is the largest observed step count, not the last bucket.
	maxObserved := 0
	for n, c := range st.RetryHistogram {
		if c > 0 {
			maxObserved = n
		}
	}
	if p100 := mathx.PercentileHistogram(st.RetryHistogram, 100); p100 != float64(maxObserved) {
		t.Errorf("p100 %g != largest observed step count %d", p100, maxObserved)
	}
}

func TestQueueDelayServiceBreakdown(t *testing.T) {
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 2000, 6
	st := runWorkload(t, cfg, "YCSB-C", 1500, 800)
	if st.ReadQueueDelay.N() == 0 || st.ReadService.N() == 0 {
		t.Fatal("breakdown not recorded")
	}
	// Single-page reads: response ≈ queue delay + service. Means should
	// compose to the request mean within rounding.
	sum := st.ReadQueueDelay.Mean() + st.ReadService.Mean()
	if sum < st.MeanRead()*0.9 || sum > st.MeanRead()*1.1 {
		t.Errorf("queue (%.0f) + service (%.0f) = %.0f µs, request mean %.0f µs",
			st.ReadQueueDelay.Mean(), st.ReadService.Mean(), sum, st.MeanRead())
	}
	// Retried reads dominate service; it must be far above the 126 µs
	// clean-read time at (2K, 6mo).
	if st.ReadService.Mean() < 500 {
		t.Errorf("service mean %.0f µs implausibly low for an aged device", st.ReadService.Mean())
	}
}

func TestPnAR2CutsBothQueueAndService(t *testing.T) {
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 2000, 6
	base := runWorkload(t, cfg, "YCSB-C", 1500, 800)
	cfg.Scheme = core.PnAR2
	both := runWorkload(t, cfg, "YCSB-C", 1500, 800)
	if both.ReadService.Mean() >= base.ReadService.Mean() {
		t.Error("PnAR2 should cut read service time")
	}
	if both.ReadQueueDelay.Mean() >= base.ReadQueueDelay.Mean() {
		t.Error("shorter service should also drain queues faster")
	}
}

// TestGCReadPaysRegularReadSetFeature: with ReducedRegularReads, a GC
// relocation read reprograms the tPRE register exactly as a host read
// does. On an idle device whose register is still at the default level,
// the move's read pays tSET before its plan, so its write-back begins at
// tSET plus the plan's die hold. A host read of the same block that
// follows finds the register set and pays none: it arrives during the
// write-back's transfer, suspends the program as it begins, and responds
// one plan latency later.
func TestGCReadPaysRegularReadSetFeature(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scheme = core.AR2
	cfg.PEC, cfg.RetentionMonths = 1000, 6
	cfg.ReducedRegularReads = true
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := dev.dies[0]
	// The first two preconditioned pages of one block on die 0. Reads at
	// this condition are pure functions of the page, so resolving them
	// here leaves the device as it was.
	var lpns []int64
	var ppns []ftl.PPN
	for l := int64(0); l < cfg.PreconditionPages && len(lpns) < 2; l++ {
		ppn, ok := dev.flash.Lookup(l)
		if !ok || ppn.Die != d.id || len(ppns) > 0 && (ppn.Plane != ppns[0].Plane || ppn.Block != ppns[0].Block) {
			continue
		}
		lpns, ppns = append(lpns, l), append(ppns, ppn)
	}
	if len(lpns) < 2 {
		t.Fatal("no block on die 0 holds two preconditioned pages")
	}
	gcOC := dev.resolveRead(ppns[0])
	hostOC := dev.resolveRead(ppns[1])
	if gcOC.preLevel == d.lastPreLevel || hostOC.preLevel != gcOC.preLevel {
		t.Fatalf("levels: die register %d, GC read %d, host read %d; want the reads' equal and the register's apart",
			d.lastPreLevel, gcOC.preLevel, hostOC.preLevel)
	}

	tx := dev.newTxn(txnGCMove)
	tx.lpn = lpns[0]
	dev.enqueue(d, tx, 0)
	for d.cur == nil && dev.eng.Step() {
	}
	if d.cur != tx {
		t.Fatal("the move never reached its write-back")
	}
	hold := core.BuildPlan(cfg.Scheme, gcOC.nrr, gcOC.timings, core.Options{}).DieHold()
	if got, want := dev.eng.Now(), cfg.Timing.TSet+hold; got != want {
		t.Errorf("write-back began at %v, want tSET %v + the plan's die hold %v = %v", got, cfg.Timing.TSet, hold, want)
	}
	if dev.stats.RegReadSetFeatures != 1 || d.lastPreLevel != gcOC.preLevel {
		t.Errorf("after the GC read: %d SET FEATUREs, register at %d; want 1 and %d",
			dev.stats.RegReadSetFeatures, d.lastPreLevel, gcOC.preLevel)
	}

	at := dev.eng.Now()
	if die, _ := dev.flash.StripeOf(lpns[1]); die != d.id {
		t.Fatalf("LPN %d maps to die 0 but stripes to die %d", lpns[1], die)
	}
	req := dev.newRequest()
	req.arrival, req.lpn, req.pages = at, lpns[1], 1
	dev.submit(req, at)
	for dev.stats.Completed == 0 && dev.eng.Step() {
	}
	latency := core.BuildPlan(cfg.Scheme, hostOC.nrr, hostOC.timings, core.Options{}).Latency()
	if got, want := dev.eng.Now(), at+cfg.Timing.TDMA+latency; got != want {
		t.Errorf("host read responded at %v, want the write-back's tDMA %v + the plan's latency %v after %v = %v",
			got, cfg.Timing.TDMA, latency, at, want)
	}
	if dev.stats.RegReadSetFeatures != 1 {
		t.Errorf("%d SET FEATUREs after the host read, want 1: its level was already set", dev.stats.RegReadSetFeatures)
	}
}
