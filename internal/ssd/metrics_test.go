package ssd

import (
	"reflect"
	"testing"

	"readretry/internal/core"
)

// --- per-address retry metrics (Config.RetryMetrics) ------------------------

func TestRetryMetricsObservational(t *testing.T) {
	// Metrics are accounting only: every latency statistic must be
	// bit-identical with them on or off.
	cfg := tinyConfig()
	cfg.Scheme = core.PnAR2
	cfg.PEC, cfg.RetentionMonths = 2000, 12
	plain := runWorkload(t, cfg, "YCSB-C", 800, 300)
	cfg.RetryMetrics = true
	metered := runWorkload(t, cfg, "YCSB-C", 800, 300)
	if metered.Retry == nil {
		t.Fatal("Config.RetryMetrics set but Stats.Retry is nil")
	}
	if plain.MeanRead() != metered.MeanRead() || plain.MeanAll() != metered.MeanAll() ||
		plain.ReadPercentile(99) != metered.ReadPercentile(99) {
		t.Errorf("metrics changed latencies: read %v vs %v, all %v vs %v",
			plain.MeanRead(), metered.MeanRead(), plain.MeanAll(), metered.MeanAll())
	}
	if plain.MeanRetrySteps() != metered.MeanRetrySteps() {
		t.Errorf("metrics changed N_RR: %v vs %v", plain.MeanRetrySteps(), metered.MeanRetrySteps())
	}
}

func TestRetryMetricsConsistentWithStats(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scheme = core.PnAR2
	cfg.PEC, cfg.RetentionMonths = 2000, 12
	cfg.RetryMetrics = true
	st := runWorkload(t, cfg, "YCSB-C", 800, 300)
	m := st.Retry
	if m == nil {
		t.Fatal("Stats.Retry is nil")
	}
	// The metrics layer records GC relocation reads too; YCSB-C writes
	// nothing, so it makes none, and both sides count the host reads.
	if m.PageReads() != st.PageReads {
		t.Errorf("metrics saw %d page reads, Stats counted %d", m.PageReads(), st.PageReads)
	}
	if m.RetriedReads() != st.RetriedReads {
		t.Errorf("metrics saw %d retried reads, Stats counted %d", m.RetriedReads(), st.RetriedReads)
	}
	s := m.Summary()
	if s.RetriedReads == 0 {
		t.Fatal("aged device produced no retried reads")
	}
	if s.HotBlock < 0 || s.HotBlock >= m.Blocks() {
		t.Errorf("hot block %d outside [0, %d)", s.HotBlock, m.Blocks())
	}
	if s.HotShare <= 0 || s.HotShare > 1 {
		t.Errorf("hot share %v outside (0, 1]", s.HotShare)
	}
	if len(s.TopPages) == 0 {
		t.Error("no hottest pages recorded")
	}
	if s.SenseUS <= 0 || s.TransferUS <= 0 || s.ECCUS <= 0 {
		t.Errorf("latency attribution empty: sense %v, transfer %v, ecc %v",
			s.SenseUS, s.TransferUS, s.ECCUS)
	}
}

func TestRetryMetricsDeterministic(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scheme = core.PnAR2
	cfg.PEC, cfg.RetentionMonths = 2000, 12
	cfg.RetryMetrics = true
	a := runWorkload(t, cfg, "YCSB-C", 600, 300).Retry.Summary()
	b := runWorkload(t, cfg, "YCSB-C", 600, 300).Retry.Summary()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical runs digested differently:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(a.CSVFields(), b.CSVFields()) {
		t.Errorf("CSV fields differ across identical runs")
	}
}

// --- history-seeded ladder starts (Config.UseRetryHistory) ------------------

func TestRetryHistoryCutsRetrySteps(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scheme = core.PnAR2
	cfg.PEC, cfg.RetentionMonths = 2000, 12
	plain := runWorkload(t, cfg, "YCSB-C", 800, 300)
	cfg.UseRetryHistory = true
	hist := runWorkload(t, cfg, "YCSB-C", 800, 300)
	if hist.HistoryReads == 0 {
		t.Fatal("history policy never seeded a read")
	}
	if hist.MeanRetrySteps() >= plain.MeanRetrySteps() {
		t.Errorf("history mean N_RR = %.2f vs %.2f plain; expected a cut",
			hist.MeanRetrySteps(), plain.MeanRetrySteps())
	}
	if hist.MeanRetrySteps() < 1 {
		t.Errorf("history mean N_RR = %.2f — below the 1-step floor", hist.MeanRetrySteps())
	}
	if hist.MeanRead() >= plain.MeanRead() {
		t.Error("fewer steps should mean faster reads")
	}
}

func TestRetryHistoryLeavesCleanReadsAlone(t *testing.T) {
	cfg := tinyConfig()
	cfg.PEC, cfg.RetentionMonths = 0, 0
	cfg.UseRetryHistory = true
	st := runWorkload(t, cfg, "YCSB-C", 600, 800)
	if st.MeanRetrySteps() != 0 {
		t.Errorf("fresh device N_RR = %.2f with history, want 0", st.MeanRetrySteps())
	}
	if st.HistoryReads != 0 {
		t.Error("history should not engage on clean reads")
	}
}

func TestRetryHistoryDeterministic(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scheme = core.PnAR2
	cfg.PEC, cfg.RetentionMonths = 2000, 12
	cfg.UseRetryHistory = true
	a := runWorkload(t, cfg, "YCSB-C", 600, 300)
	b := runWorkload(t, cfg, "YCSB-C", 600, 300)
	if a.MeanRead() != b.MeanRead() || a.HistoryReads != b.HistoryReads {
		t.Errorf("history runs diverged: read %v vs %v, seeded %d vs %d",
			a.MeanRead(), b.MeanRead(), a.HistoryReads, b.HistoryReads)
	}
}

// TestReadCountersSplitHostAndGC: the per-read statistics (PageReads, the
// N_RR summary and histogram, RetriedReads) count host page reads only,
// while the retry metrics record every page read the device senses, GC
// relocation reads included.
func TestReadCountersSplitHostAndGC(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scheme = core.AR2
	cfg.PEC, cfg.RetentionMonths = 1000, 6
	cfg.RetryMetrics = true
	st := runWorkload(t, cfg, "stg_0", 4000, 1500)
	if st.GCPageReads == 0 {
		t.Fatal("run made no GC relocation reads")
	}
	var hist int64
	for _, n := range st.RetryHistogram {
		hist += n
	}
	if hist != st.PageReads {
		t.Errorf("retry histogram holds %d reads, PageReads = %d", hist, st.PageReads)
	}
	if got, want := st.Retry.PageReads(), st.PageReads+st.GCPageReads; got != want {
		t.Errorf("retry metrics saw %d page reads, want PageReads %d + GCPageReads %d = %d",
			got, st.PageReads, st.GCPageReads, want)
	}
	t.Logf("%d host and %d GC page reads", st.PageReads, st.GCPageReads)
}
