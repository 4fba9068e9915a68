package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPhiKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{2, 0.9772498680518208},
		{-3, 0.0013498980316300933},
	}
	// The standard normal CDF is Phi(x) = Q(−x).
	for _, c := range cases {
		if got := Q(-c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Q(%v) = %v, want Phi(%v) = %v", -c.x, got, c.x, c.want)
		}
	}
}

func TestQComplementsPhi(t *testing.T) {
	for x := -6.0; x <= 6.0; x += 0.25 {
		if got := Q(x) + Q(-x); !almostEqual(got, 1, 1e-12) {
			t.Errorf("Q(%v)+Q(%v) = %v, want 1", x, -x, got)
		}
	}
}

func TestQDeepTail(t *testing.T) {
	// Q must stay accurate where 1-Phi would cancel to zero.
	got := Q(8)
	want := 6.22096057e-16
	if got <= 0 || math.Abs(got-want)/want > 1e-6 {
		t.Errorf("Q(8) = %g, want ≈ %g", got, want)
	}
}

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d, want 8", r.N())
	}
	if !almostEqual(r.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", r.Mean())
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", r.Min(), r.Max())
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	// interpolation between ranks
	if got := Percentile([]float64{10, 20}, 50); !almostEqual(got, 15, 1e-12) {
		t.Errorf("interpolated = %v, want 15", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentileSortedMatchesPercentile(t *testing.T) {
	f := func(raw []float64, pRaw float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		p := math.Mod(math.Abs(pRaw), 100)
		a := Percentile(raw, p)
		sorted := make([]float64, len(raw))
		copy(sorted, raw)
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		return a == PercentileSorted(sorted, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPercentileHistogram(t *testing.T) {
	cases := []struct {
		name   string
		counts []int64
		p      float64
		want   float64
	}{
		{"nil", nil, 50, 0},
		{"all-zero", []int64{0, 0, 0}, 99, 0},
		{"one entry p0", []int64{0, 0, 1}, 0, 2},
		{"one entry p50", []int64{0, 0, 1}, 50, 2},
		{"one entry p100", []int64{0, 0, 1}, 100, 2},
		// An empty tail bucket must never be reported: the largest
		// *observed* value is 1 even though the histogram extends to 3.
		{"empty tail p100", []int64{1, 2, 0, 0}, 100, 1},
		{"negative p clamps", []int64{0, 1, 1}, -5, 1},
		{"above 100 clamps", []int64{0, 1, 1}, 250, 2},
		// Multiset {0, 1, 1}: rank 0.5·2 = 1 → value 1 exactly.
		{"median on count", []int64{1, 2}, 50, 1},
		// Multiset {0, 2}: rank 0.5·1 = 0.5 → interpolate 0 and 2.
		{"median interpolated", []int64{1, 0, 1}, 50, 1},
		// Skewed: 99 clean reads and one 10-step read; p99 lands between
		// the last 0 and the 10: rank 0.99·99 = 98.01 → 0.01·10.
		{"skewed p99", []int64{99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, 99, 0.1},
	}
	for _, c := range cases {
		if got := PercentileHistogram(c.counts, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("%s: PercentileHistogram(%v, %v) = %v, want %v",
				c.name, c.counts, c.p, got, c.want)
		}
	}
}

func TestPercentileHistogramMatchesSortedExpansion(t *testing.T) {
	f := func(raw []uint8, pRaw float64) bool {
		counts := make([]int64, len(raw))
		var expanded []float64
		for v, c := range raw {
			counts[v] = int64(c % 5)
			for i := int64(0); i < counts[v]; i++ {
				expanded = append(expanded, float64(v))
			}
		}
		if len(expanded) == 0 {
			return PercentileHistogram(counts, pRaw) == 0
		}
		p := math.Mod(math.Abs(pRaw), 120) // exercise the ≥100 clamp too
		return PercentileHistogram(counts, p) == PercentileSorted(expanded, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 3); got != 3 {
		t.Errorf("Clamp = %v, want 3", got)
	}
	if got := Clamp(-1, 0, 3); got != 0 {
		t.Errorf("Clamp = %v, want 0", got)
	}
	if got := Clamp(2, 0, 3); got != 2 {
		t.Errorf("Clamp = %v, want 2", got)
	}
}
