package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical draws across different seeds", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Errorf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	c1again := parent.Split(1)
	// Same label reproduces the same stream.
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c1again.Uint64() {
			t.Fatalf("Split(1) not reproducible at draw %d", i)
		}
	}
	// Different labels give different streams.
	c1b := parent.Split(1)
	same := 0
	for i := 0; i < 100; i++ {
		if c1b.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical draws across split labels", same)
	}
}

func TestSplitDoesNotDisturbParent(t *testing.T) {
	a, b := New(11), New(11)
	_ = a.Split(99)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split advanced the parent stream")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %v, want ≈ 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(9)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("bucket %d count %d outside [9000,11000]", i, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformitySmallRange(t *testing.T) {
	r := New(13)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[r.Uint64n(3)]++
	}
	for i, c := range counts {
		if c < 9500 || c > 10500 {
			t.Errorf("bucket %d count %d outside [9500,10500]", i, c)
		}
	}
}

func TestExpFloat64Moments(t *testing.T) {
	r := New(19)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential variate %v < 0", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exp mean = %v, want ≈ 1", mean)
	}
}

func TestZipfSkewAndBounds(t *testing.T) {
	r := New(31)
	z := NewZipf(1000, 0.99)
	counts := map[int64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Sample(r)
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate and decay must be steep.
	if counts[0] < counts[1] {
		t.Errorf("rank0 (%d) not more popular than rank1 (%d)", counts[0], counts[1])
	}
	if frac := float64(counts[0]) / n; frac < 0.08 {
		t.Errorf("rank0 fraction = %v, want > 0.08 for theta=0.99", frac)
	}
	top10 := 0
	for i := int64(0); i < 10; i++ {
		top10 += counts[i]
	}
	if frac := float64(top10) / n; frac < 0.3 {
		t.Errorf("top-10 fraction = %v, want > 0.3", frac)
	}
}

func TestZipfPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewZipf(0, 0.99) },
		func() { NewZipf(10, 0) },
		func() { NewZipf(10, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestScrambledZipfSpreadsHotKeys(t *testing.T) {
	r := New(37)
	z := NewZipf(1<<16, 0.99)
	counts := map[int64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.ScrambledSample(r)
		if v < 0 || v >= z.N() {
			t.Fatalf("scrambled sample %d out of range", v)
		}
		counts[v]++
	}
	// The single hottest key should NOT be key 0 region systematically; check
	// that the hottest key is still hot (scramble preserves popularity).
	hottest, hotCount := int64(-1), 0
	for k, c := range counts {
		if c > hotCount {
			hottest, hotCount = k, c
		}
	}
	if hotCount < n/20 {
		t.Errorf("hottest key only %d/%d draws; scramble destroyed skew", hotCount, n)
	}
	_ = hottest
}

func TestLatestFavorsNewest(t *testing.T) {
	r := New(41)
	l := NewLatest(1000, 0.99)
	const max = 500
	counts := make([]int, max)
	const n = 100000
	for i := 0; i < n; i++ {
		v := l.Sample(r, max)
		if v < 0 || v >= max {
			t.Fatalf("latest sample %d out of range [0,%d)", v, max)
		}
		counts[v]++
	}
	if counts[max-1] < counts[0] {
		t.Errorf("newest item (%d draws) not hotter than oldest (%d draws)",
			counts[max-1], counts[0])
	}
	if l.Sample(r, 0) != 0 {
		t.Error("Sample with max=0 should return 0")
	}
}

func TestZipfRankOrderingProperty(t *testing.T) {
	// Popularity must be non-increasing in rank (statistically).
	f := func(seed uint64) bool {
		r := New(seed)
		z := NewZipf(64, 0.9)
		counts := make([]int, 64)
		for i := 0; i < 20000; i++ {
			counts[z.Sample(r)]++
		}
		// Compare aggregated halves rather than adjacent ranks to keep noise down.
		lo, hi := 0, 0
		for i := 0; i < 32; i++ {
			lo += counts[i]
			hi += counts[32+i]
		}
		return lo > hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
