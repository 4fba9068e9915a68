package workload

import (
	"math"
	"testing"

	"readretry/internal/trace"
)

func TestTable2Roster(t *testing.T) {
	specs := Table2()
	if len(specs) != 12 {
		t.Fatalf("Table 2 has %d workloads, want 12", len(specs))
	}
	// Spot-check the paper's exact ratios.
	byName := map[string]Spec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	checks := []struct {
		name       string
		read, cold float64
	}{
		{"stg_0", 0.15, 0.38},
		{"hm_0", 0.36, 0.22},
		{"proj_1", 0.89, 0.96},
		{"mds_1", 0.92, 0.98},
		{"YCSB-A", 0.98, 0.72},
		{"YCSB-E", 0.99, 0.98},
	}
	for _, c := range checks {
		s, ok := byName[c.name]
		if !ok {
			t.Fatalf("missing workload %s", c.name)
		}
		if s.ReadRatio != c.read || s.ColdRatio != c.cold {
			t.Errorf("%s: (%.2f, %.2f), want (%.2f, %.2f)",
				c.name, s.ReadRatio, s.ColdRatio, c.read, c.cold)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("usr_1")
	if err != nil || s.ReadRatio != 0.96 {
		t.Errorf("ByName(usr_1) = %+v, %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown name")
	}
	if len(Names()) != 12 {
		t.Error("Names() should list 12 workloads")
	}
}

func TestReadDominantClassification(t *testing.T) {
	// §7: stg_0 and hm_0 are the write-dominant workloads.
	for _, s := range Table2() {
		wantDominant := s.Name != "stg_0" && s.Name != "hm_0"
		if s.ReadDominant() != wantDominant {
			t.Errorf("%s ReadDominant = %v", s.Name, s.ReadDominant())
		}
	}
}

func genFor(t *testing.T, name string, n int) ([]trace.Record, Spec) {
	t.Helper()
	spec, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.FootprintPages = 1 << 16
	g := NewGenerator(spec, 42)
	return g.Generate(n), g.Spec()
}

func TestGeneratedReadRatioMatchesTable2(t *testing.T) {
	for _, name := range Names() {
		recs, spec := genFor(t, name, 20000)
		got := MeasureReadRatio(recs)
		if math.Abs(got-spec.ReadRatio) > 0.02 {
			t.Errorf("%s: generated read ratio %.3f, spec %.2f", name, got, spec.ReadRatio)
		}
	}
}

func TestGeneratedColdRatioMatchesTable2(t *testing.T) {
	// The measured cold ratio tracks the spec: reads to the cold region are
	// never invalidated by writes. Hot-region reads may also look "cold"
	// early in a run (before their page's first write), so the measurement
	// upper-bounds the spec; the cold region guarantees the lower bound.
	for _, name := range Names() {
		recs, spec := genFor(t, name, 20000)
		got := MeasureColdRatio(recs)
		if got < spec.ColdRatio-0.03 {
			t.Errorf("%s: measured cold ratio %.3f below spec %.2f", name, got, spec.ColdRatio)
		}
		if got > spec.ColdRatio+0.35 {
			t.Errorf("%s: measured cold ratio %.3f way above spec %.2f", name, got, spec.ColdRatio)
		}
	}
}

func TestColdRegionNeverWritten(t *testing.T) {
	recs, spec := genFor(t, "proj_1", 30000)
	coldPages := int64(float64(spec.FootprintPages) * spec.ColdRatio)
	for _, r := range recs {
		if r.Write && r.Offset/PageSize < coldPages {
			t.Fatalf("write landed in the cold region: %+v", r)
		}
	}
}

func TestArrivalsMonotone(t *testing.T) {
	recs, _ := genFor(t, "YCSB-C", 5000)
	for i := 1; i < len(recs); i++ {
		if recs[i].Arrival < recs[i-1].Arrival {
			t.Fatal("arrivals not monotone")
		}
	}
}

func TestAverageRateRoughlyHonored(t *testing.T) {
	spec, _ := ByName("YCSB-C")
	spec.AvgIOPS = 2000
	spec.FootprintPages = 1 << 16
	g := NewGenerator(spec, 7)
	recs := g.Generate(20000)
	dur := recs[len(recs)-1].Arrival.Seconds()
	rate := float64(len(recs)) / dur
	if rate < 1500 || rate > 2600 {
		t.Errorf("achieved rate %.0f IOPS, want ≈2000", rate)
	}
}

func TestBurstinessIncreasesVariance(t *testing.T) {
	smooth, _ := ByName("YCSB-C")
	smooth.FootprintPages = 1 << 16
	bursty := smooth
	bursty.Burstiness = 5

	cv := func(spec Spec) float64 {
		g := NewGenerator(spec, 3)
		recs := g.Generate(10000)
		var gaps []float64
		for i := 1; i < len(recs); i++ {
			gaps = append(gaps, float64(recs[i].Arrival-recs[i-1].Arrival))
		}
		mean, varsum := 0.0, 0.0
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		for _, g := range gaps {
			varsum += (g - mean) * (g - mean)
		}
		return math.Sqrt(varsum/float64(len(gaps))) / mean
	}
	if cv(bursty) <= cv(smooth)*1.2 {
		t.Errorf("burstiness knob had no effect: cv %v vs %v", cv(bursty), cv(smooth))
	}
}

func TestRequestsAlignedAndBounded(t *testing.T) {
	for _, name := range []string{"stg_0", "YCSB-E"} {
		recs, spec := genFor(t, name, 10000)
		for _, r := range recs {
			if r.Offset%PageSize != 0 || r.Size%PageSize != 0 || r.Size == 0 {
				t.Fatalf("%s: unaligned request %+v", name, r)
			}
			end := (r.Offset + int64(r.Size)) / PageSize
			if end > spec.FootprintPages {
				t.Fatalf("%s: request beyond footprint: %+v", name, r)
			}
		}
	}
}

func TestScansLongerThanPointReads(t *testing.T) {
	eRecs, _ := genFor(t, "YCSB-E", 10000)
	cRecs, _ := genFor(t, "YCSB-C", 10000)
	avg := func(recs []trace.Record) float64 {
		total, n := 0.0, 0
		for _, r := range recs {
			if !r.Write {
				total += float64(r.Size)
				n++
			}
		}
		return total / float64(n)
	}
	if avg(eRecs) < 2*avg(cRecs) {
		t.Errorf("YCSB-E scans (%.0f B avg) should dwarf YCSB-C point reads (%.0f B avg)",
			avg(eRecs), avg(cRecs))
	}
}

func TestYCSBDFavorsRecentlyInserted(t *testing.T) {
	spec, _ := ByName("YCSB-D")
	spec.FootprintPages = 1 << 16
	g := NewGenerator(spec, 11)
	recs := g.Generate(20000)
	coldPages := int64(float64(spec.FootprintPages) * spec.ColdRatio)
	// Hot-region reads should skew toward the top of the inserted range.
	var hotReads []int64
	for _, r := range recs {
		p := r.Offset / PageSize
		if !r.Write && p >= coldPages {
			hotReads = append(hotReads, p-coldPages)
		}
	}
	if len(hotReads) < 100 {
		t.Skip("not enough hot reads sampled")
	}
	above, below := 0, 0
	mid := g.inserted / 2
	for _, p := range hotReads {
		if p >= mid {
			above++
		} else {
			below++
		}
	}
	if above <= below {
		t.Errorf("latest distribution: %d above midpoint vs %d below", above, below)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	spec, _ := ByName("hm_0")
	spec.FootprintPages = 1 << 14
	a := NewGenerator(spec, 99).Generate(1000)
	b := NewGenerator(spec, 99).Generate(1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs across identical seeds", i)
		}
	}
	c := NewGenerator(spec, 100).Generate(1000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical streams")
	}
}

func TestStatsCount(t *testing.T) {
	spec, _ := ByName("YCSB-A")
	spec.FootprintPages = 1 << 14
	g := NewGenerator(spec, 5)
	g.Generate(5000)
	r, w := g.Stats()
	if r+w != 5000 {
		t.Errorf("stats %d + %d != 5000", r, w)
	}
}

func TestAvgPagesPerRequest(t *testing.T) {
	// Point-read YCSB workloads issue one page per request.
	c, _ := ByName("YCSB-C")
	if got := c.AvgPagesPerRequest(); got < 0.99 || got > 1.01 {
		t.Errorf("YCSB-C avg pages = %v, want 1", got)
	}
	// YCSB-E's scans average 8.5 pages.
	e, _ := ByName("YCSB-E")
	if got := e.AvgPagesPerRequest(); got < 8.0 || got > 8.6 {
		t.Errorf("YCSB-E avg pages = %v, want ≈8.4", got)
	}
	// MSRC workloads use the truncated geometric (max 4): E ≈ 1.5.
	m, _ := ByName("mds_1")
	if got := m.AvgPagesPerRequest(); got < 1.3 || got > 1.7 {
		t.Errorf("mds_1 avg pages = %v, want ≈1.5", got)
	}
}

func TestAvgPagesMatchesGeneratedStream(t *testing.T) {
	for _, name := range []string{"YCSB-E", "stg_0", "YCSB-A"} {
		spec, _ := ByName(name)
		spec.FootprintPages = 1 << 16
		g := NewGenerator(spec, 5)
		recs := g.Generate(20000)
		total := 0.0
		for _, r := range recs {
			total += float64(r.Size) / PageSize
		}
		measured := total / float64(len(recs))
		predicted := spec.AvgPagesPerRequest()
		if measured < predicted*0.9 || measured > predicted*1.1 {
			t.Errorf("%s: measured %.2f pages/req, predicted %.2f", name, measured, predicted)
		}
	}
}

func TestMeasureHelpersEmptyInput(t *testing.T) {
	if MeasureColdRatio(nil) != 0 || MeasureReadRatio(nil) != 0 {
		t.Error("empty input should measure 0")
	}
}
