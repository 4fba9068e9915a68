package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"readretry/internal/experiments/cellcache"
)

// metricsSweepConfig is tinySweepConfig with the retry-accounting layer on
// — the precondition of every metrics sink.
func metricsSweepConfig(seed uint64) Config {
	cfg := tinySweepConfig(seed)
	cfg.Base.RetryMetrics = true
	return cfg
}

func TestMetricsCSVStreamingMatchesBuffered(t *testing.T) {
	for _, parallelism := range []int{1, 8} {
		cfg := metricsSweepConfig(7)
		cfg.Parallelism = parallelism

		var streamed bytes.Buffer
		sink, err := NewMetricsCSVSinkFor(cfg, &streamed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Sink = sink
		res, err := RunSweep(context.Background(), cfg, Figure14Variants())
		if err != nil {
			t.Fatal(err)
		}

		var buffered bytes.Buffer
		if err := res.WriteMetricsCSV(&buffered); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed.Bytes(), buffered.Bytes()) {
			t.Fatalf("parallelism %d: streaming metrics CSV differs from buffered WriteMetricsCSV\nstreamed:\n%s\nbuffered:\n%s",
				parallelism, streamed.String(), buffered.String())
		}
	}
}

func TestMetricsCSVIdenticalAcrossRepeatedRuns(t *testing.T) {
	stream := func(parallelism int) []byte {
		cfg := metricsSweepConfig(7)
		cfg.Parallelism = parallelism
		var buf bytes.Buffer
		sink, err := NewMetricsCSVSinkFor(cfg, &buf)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Sink = sink
		if _, err := RunSweep(context.Background(), cfg, Figure14Variants()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := stream(1)
	for _, p := range []int{1, 2, 8} {
		if got := stream(p); !bytes.Equal(got, serial) {
			t.Fatalf("parallelism %d: metrics CSV differs across runs", p)
		}
	}
}

// TestMetricsCSVSurvivesTheCellCache proves the retry digest travels
// losslessly through the cache tier: a second run served entirely from
// cache renders a byte-identical metrics CSV.
func TestMetricsCSVSurvivesTheCellCache(t *testing.T) {
	cfg := metricsSweepConfig(7)
	cfg.Cache, _ = cellcache.Disk(t.TempDir())

	run := func() ([]byte, int) {
		var buf bytes.Buffer
		sink, err := NewMetricsCSVSinkFor(cfg, &buf)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Sink = sink
		var n simCounter
		c.simHook = n.inc
		if _, err := RunSweep(context.Background(), c, Figure14Variants()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), n.value()
	}
	cold, coldSims := run()
	warm, warmSims := run()
	if coldSims == 0 {
		t.Fatal("cold run performed no simulations")
	}
	if warmSims != 0 {
		t.Fatalf("warm run simulated %d cells, want 0", warmSims)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cache round-trip changed the metrics CSV\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
}

// TestMetricsSinkWithoutRetryMetricsFails: a metrics sink on a sweep whose
// device never collected retry accounting is a configuration error, not an
// empty file.
func TestMetricsSinkWithoutRetryMetricsFails(t *testing.T) {
	cfg := tinySweepConfig(7) // Base.RetryMetrics off
	var buf bytes.Buffer
	sink, err := NewMetricsCSVSinkFor(cfg, &buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sink = sink
	_, err = RunSweep(context.Background(), cfg, Figure14Variants())
	if err == nil || !strings.Contains(err.Error(), "RetryMetrics") {
		t.Fatalf("sweep error = %v, want a RetryMetrics configuration error", err)
	}
}

// TestHistoryVariantProducesReduction registers the history-seeded column
// beside the paper's grid and checks it earns its row: a positive
// response-time reduction over Baseline, at least matching plain PnAR2
// (the same controller minus the seeding).
func TestHistoryVariantProducesReduction(t *testing.T) {
	cfg := metricsSweepConfig(7)
	variants := append(Figure14Variants(), HistoryVariant())
	res, err := RunSweep(context.Background(), cfg, variants)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range res.Configs {
		if name == "PnAR2+H" {
			found = true
		}
	}
	if !found {
		t.Fatal("PnAR2+H column missing from the result")
	}
	hAvg, hMax := res.Reduction("PnAR2+H", "Baseline", false)
	if hAvg <= 0 || hMax <= 0 {
		t.Fatalf("history reduction avg %.3f max %.3f, want positive", hAvg, hMax)
	}
	pAvg, _ := res.Reduction("PnAR2", "Baseline", false)
	if hAvg < pAvg {
		t.Errorf("history-seeded PnAR2 reduction %.3f trails plain PnAR2 %.3f", hAvg, pAvg)
	}
}

// TestHistoryVariantDistinctCells: the History flag is behavior, so the
// two PnAR2 flavors must never share a content address.
func TestHistoryVariantDistinctCells(t *testing.T) {
	cfg := tinySweepConfig(7)
	cond := cfg.Conditions[0]
	plain := Figure14Variants()[3] // PnAR2
	seeded := HistoryVariant()
	a, err := cellKey(cfg, "stg_0", cond, plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cellKey(cfg, "stg_0", cond, seeded)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("PnAR2 and PnAR2+H share a cell key; the History flag is not hashed")
	}
}
