package experiments

import (
	"context"
	"strings"
	"testing"

	"readretry/internal/nand"
	"readretry/internal/workload"
)

// quick runs the reduced sweep once per test binary; several tests share it.
var cachedFig14 *Result

func fig14(t *testing.T) *Result {
	t.Helper()
	if cachedFig14 != nil {
		return cachedFig14
	}
	res, err := RunSweep(context.Background(), QuickConfig(), Figure14Variants())
	if err != nil {
		t.Fatal(err)
	}
	cachedFig14 = res
	return res
}

func TestFigure14Structure(t *testing.T) {
	res := fig14(t)
	cfg := QuickConfig()
	want := len(cfg.Workloads) * len(cfg.Conditions) * 5
	if len(res.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if c.Mean <= 0 {
			t.Fatalf("non-positive mean in %+v", c)
		}
		if c.Config == "Baseline" && c.Normalized != 1 {
			t.Fatalf("baseline not normalized to 1: %+v", c)
		}
	}
}

func TestFigure14SchemeOrdering(t *testing.T) {
	res := fig14(t)
	// Per (workload, cond): NoRR ≤ PnAR2 ≤ PR2 ≤ Baseline.
	type key struct {
		wl   string
		cond Condition
	}
	norm := map[key]map[string]float64{}
	for _, c := range res.Cells {
		k := key{c.Workload, c.Cond}
		if norm[k] == nil {
			norm[k] = map[string]float64{}
		}
		norm[k][c.Config] = c.Normalized
	}
	for k, m := range norm {
		if !(m["NoRR"] <= m["PnAR2"] && m["PnAR2"] <= m["PR2"] && m["PR2"] <= m["Baseline"]+1e-9) {
			t.Errorf("%v: ordering violated: %v", k, m)
		}
		if m["AR2"] >= m["Baseline"] {
			t.Errorf("%v: AR2 (%v) should beat Baseline", k, m["AR2"])
		}
	}
}

func TestFigure14HeadlineStatistics(t *testing.T) {
	// §7.2 headline numbers, with wide bands (our sweep is reduced):
	// PnAR2 avg ≈28.9 %, PR2 avg ≈17.7 %, AR2 avg ≈11.9 %.
	res := fig14(t)
	avg, max := res.Reduction("PnAR2", "Baseline", false)
	if avg < 0.15 || avg > 0.45 {
		t.Errorf("PnAR2 avg reduction = %.1f%%, paper reports 28.9%%", avg*100)
	}
	if max < avg {
		t.Errorf("max (%v) below avg (%v)", max, avg)
	}
	prAvg, _ := res.Reduction("PR2", "Baseline", false)
	arAvg, _ := res.Reduction("AR2", "Baseline", false)
	if prAvg <= arAvg {
		t.Errorf("PR2 avg (%.3f) should beat AR2 avg (%.3f) — Figure 14's shape", prAvg, arAvg)
	}
	if gap := res.GapClosed("PnAR2"); gap < 0.2 || gap > 0.8 {
		t.Errorf("PnAR2 closes %.0f%% of the gap to NoRR, paper reports 41%%", gap*100)
	}
	if ratio := res.RatioToNoRR("PnAR2", false); ratio < 1.2 {
		t.Errorf("PnAR2/NoRR ratio = %.2f, paper reports 2.37 (should stay well above 1)", ratio)
	}
}

func TestFigure15PSO(t *testing.T) {
	cfg := QuickConfig()
	cfg.Workloads = []string{"mds_1", "YCSB-C"}
	res, err := RunSweep(context.Background(), cfg, Figure15Variants())
	if err != nil {
		t.Fatal(err)
	}
	// PSO must beat Baseline substantially; PSO+PnAR2 must beat PSO.
	psoAvg, _ := res.Reduction("PSO", "Baseline", true)
	if psoAvg < 0.2 {
		t.Errorf("PSO reduction vs Baseline = %.1f%%, expected large", psoAvg*100)
	}
	comboAvg, comboMax := res.Reduction("PSO+PnAR2", "PSO", true)
	if comboAvg < 0.05 || comboAvg > 0.40 {
		t.Errorf("PSO+PnAR2 over PSO avg = %.1f%%, paper reports 17%%", comboAvg*100)
	}
	if comboMax > 0.5 {
		t.Errorf("PSO+PnAR2 over PSO max = %.1f%%, paper reports ≤31.5%%", comboMax*100)
	}
	// PSO stays above the ideal.
	if ratio := res.RatioToNoRR("PSO", true); ratio < 1.05 {
		t.Errorf("PSO/NoRR = %.2f, paper reports 1.92 on read-dominant workloads", ratio)
	}
}

func TestConditionString(t *testing.T) {
	c := Condition{PEC: 2000, Months: 6}
	if c.String() != "2K/6mo" {
		t.Errorf("String() = %q", c.String())
	}
}

func TestConditionStringRendersExactPEC(t *testing.T) {
	// %d over PEC/1000 used to truncate: 500 → "0K", 1500 → "1K",
	// making distinct conditions indistinguishable in tables and CSV.
	for _, tc := range []struct {
		cond Condition
		want string
	}{
		{Condition{PEC: 500, Months: 1}, "0.5K/1mo"},
		{Condition{PEC: 1500, Months: 3}, "1.5K/3mo"},
		{Condition{PEC: 999, Months: 0}, "0.999K/0mo"},
		{Condition{PEC: 0, Months: 12}, "0K/12mo"},
		{Condition{PEC: 2000, Months: 0.5}, "2K/0.5mo"},
	} {
		if got := tc.cond.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.cond, got, tc.want)
		}
	}
	if (Condition{PEC: 500, Months: 1}).String() == (Condition{PEC: 999, Months: 1}).String() {
		t.Error("distinct PECs render identically")
	}
}

func TestSummaryStatisticsKeyExactly(t *testing.T) {
	// Under the old concatenated-string key, ("a", 11K) and ("a1", 1K)
	// both mapped to "a11K/0mo", so one pair's reference mean silently
	// overwrote the other's. The struct key must keep them apart.
	res := &Result{
		Cells: []Cell{
			{Workload: "a", Cond: Condition{PEC: 11000}, Config: "Baseline", Mean: 100},
			{Workload: "a", Cond: Condition{PEC: 11000}, Config: "X", Mean: 50},
			{Workload: "a", Cond: Condition{PEC: 11000}, Config: "NoRR", Mean: 10},
			{Workload: "a1", Cond: Condition{PEC: 1000}, Config: "Baseline", Mean: 1000},
			{Workload: "a1", Cond: Condition{PEC: 1000}, Config: "X", Mean: 100},
			{Workload: "a1", Cond: Condition{PEC: 1000}, Config: "NoRR", Mean: 100},
		},
		Configs: []string{"Baseline", "X", "NoRR"},
	}
	// Ratios to NoRR: 50/10 = 5 and 100/100 = 1; mean 3.
	if got := res.RatioToNoRR("X", false); got != 3 {
		t.Errorf("RatioToNoRR = %v, want 3 (keys collided?)", got)
	}
	// Gap closed: (100-50)/(100-10) = 5/9 and (1000-100)/(1000-100) = 1.
	want := (5.0/9 + 1) / 2
	if got := res.GapClosed("X"); got != want {
		t.Errorf("GapClosed = %v, want %v (keys collided?)", got, want)
	}
}

func TestRenderProducesTable(t *testing.T) {
	res := fig14(t)
	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	for _, want := range []string{"workload", "Baseline", "PnAR2", "NoRR", "stg_0", "2K/6mo"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q", want)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	wantRows := len(QuickConfig().Workloads)*len(QuickConfig().Conditions) + 2
	if len(lines) != wantRows {
		t.Errorf("table has %d lines, want %d", len(lines), wantRows)
	}
}

func TestReductionAtCondition(t *testing.T) {
	res := fig14(t)
	at := res.ReductionAt("PnAR2", "Baseline", Condition{PEC: 2000, Months: 6})
	if at <= 0 {
		t.Errorf("PnAR2 reduction at (2K, 6mo) = %v, want positive", at)
	}
	// The worse condition should show a bigger win than the milder one
	// (§7.2 observation 3).
	milder := res.ReductionAt("PnAR2", "Baseline", Condition{PEC: 1000, Months: 3})
	if at <= milder {
		t.Errorf("reduction at (2K,6mo)=%.3f should exceed (1K,3mo)=%.3f", at, milder)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	cfg := QuickConfig()
	cfg.Workloads = []string{"bogus"}
	if _, err := RunSweep(context.Background(), cfg, Figure14Variants()); err == nil {
		t.Error("expected error for unknown workload")
	}
}

func TestReductionWhereSplitsWorkloadClasses(t *testing.T) {
	res := fig14(t)
	rdAvg, _ := res.ReductionWhere("PnAR2", "Baseline",
		func(s workload.Spec) bool { return s.ReadDominant() })
	wrAvg, _ := res.ReductionWhere("PnAR2", "Baseline",
		func(s workload.Spec) bool { return !s.ReadDominant() })
	// §7: the techniques help read-dominant workloads more.
	if rdAvg <= wrAvg {
		t.Errorf("read-dominant gain (%.3f) should exceed write-dominant (%.3f)", rdAvg, wrAvg)
	}
	if wrAvg <= 0 {
		t.Errorf("write-dominant workloads should still gain (stg_0: 18.7%% in §7.2), got %.3f", wrAvg)
	}
}

func TestWriteCSV(t *testing.T) {
	res := fig14(t)
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(res.Cells)+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), len(res.Cells)+1)
	}
	if !strings.HasPrefix(lines[0], "workload,pec,months,config") {
		t.Errorf("CSV header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if got := strings.Count(line, ","); got != 8 {
			t.Fatalf("CSV row has %d commas, want 8: %q", got, line)
		}
	}
}

func TestFigure6Saving(t *testing.T) {
	tm := nand.DefaultTiming()
	if got := Figure6Saving(tm); got != tm.TDMA {
		t.Errorf("CACHE READ saving = %v, want tDMA", got)
	}
	var sb strings.Builder
	RenderFigure6(&sb, tm)
	if !strings.Contains(sb.String(), "saved") {
		t.Error("Figure 6 render missing the saving line")
	}
}
