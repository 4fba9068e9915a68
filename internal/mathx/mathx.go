// Package mathx provides the small numeric toolkit shared by the NAND
// threshold-voltage model, the characterization harness and the simulator's
// statistics: the Gaussian upper tail, running count/mean/min/max,
// percentiles over samples and over count histograms, and clamping.
//
// Everything here is deterministic and allocation-light; the V_TH model calls
// these routines millions of times per characterization sweep.
package mathx

import (
	"math"
	"sort"
)

// sqrt2 is math.Sqrt(2), precomputed for Q.
var sqrt2 = math.Sqrt(2)

// Q returns the standard normal upper-tail probability P(Z > x).
// It is numerically accurate far into the tail (uses Erfc, not 1-CDF).
func Q(x float64) float64 {
	return 0.5 * math.Erfc(x/sqrt2)
}

// Running accumulates streaming summary statistics (count, incremental mean,
// min, max). The zero value is ready to use.
type Running struct {
	n        int64
	mean     float64
	min, max float64
}

// Add records one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.mean += (x - r.mean) / float64(r.n)
}

// N returns the number of observations.
func (r *Running) N() int64 { return r.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (r *Running) Mean() float64 { return r.mean }

// Min returns the smallest observation, or 0 with no observations.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation, or 0 with no observations.
func (r *Running) Max() float64 { return r.max }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. xs is not modified. It returns 0 for
// an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// PercentileSorted is Percentile for an already ascending-sorted slice,
// avoiding the copy and sort.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// PercentileHistogram returns the p-th percentile of the integer multiset a
// count histogram encodes — value i appearing counts[i] times — with the
// same closest-rank linear interpolation as PercentileSorted over the
// expanded multiset. In particular p ≥ 100 yields the largest value with a
// nonzero count, never the histogram's length. It returns 0 when the
// histogram is empty (all counts zero).
func PercentileHistogram(counts []int64, p float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	// valueAt walks the cumulative counts to the k-th (0-based) smallest
	// element of the expanded multiset.
	valueAt := func(k int64) float64 {
		var cum int64
		for v, c := range counts {
			cum += c
			if k < cum {
				return float64(v)
			}
		}
		return float64(len(counts) - 1) // unreachable for k < total
	}
	if p <= 0 {
		return valueAt(0)
	}
	if p >= 100 {
		return valueAt(total - 1)
	}
	rank := p / 100 * float64(total-1)
	lo := int64(math.Floor(rank))
	hi := int64(math.Ceil(rank))
	if lo == hi {
		return valueAt(lo)
	}
	frac := rank - float64(lo)
	return valueAt(lo)*(1-frac) + valueAt(hi)*frac
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
