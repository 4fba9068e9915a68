package rng

import (
	"math"
	"sync"
	"testing"
)

// zetaDirect is zeta without the prefix memo: one left-to-right summation
// from the first term.
func zetaDirect(n int64, theta float64) float64 {
	const maxExact = 1 << 20
	sum := 0.0
	limit := min(n, maxExact)
	for i := int64(1); i <= limit; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	if n > limit {
		a := 1 - theta
		sum += (math.Pow(float64(n), a) - math.Pow(float64(limit), a)) / a
	}
	return sum
}

var zetaCheckpoints = []int64{1, 2, 4095, 4096, 4097, 1<<20 - 1, 1 << 20, 1<<20 + 7, 1 << 28}

// TestZetaMemoBitIdentical requires the memoized zeta to equal direct
// summation bit for bit around every memo boundary, whether the memo is
// extended in ascending order, built in one go by the largest n first, or
// already complete.
func TestZetaMemoBitIdentical(t *testing.T) {
	orders := map[float64][]int64{
		0.61: zetaCheckpoints,
		0.77: reversed(zetaCheckpoints),
	}
	for theta, ns := range orders {
		want := make(map[int64]float64)
		for _, n := range ns {
			want[n] = zetaDirect(n, theta)
		}
		for pass := 0; pass < 2; pass++ {
			for _, n := range ns {
				if got := zeta(n, theta); math.Float64bits(got) != math.Float64bits(want[n]) {
					t.Errorf("zeta(%d, %g) = %v, direct summation %v", n, theta, got, want[n])
				}
			}
		}
	}
}

func reversed(xs []int64) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}

// TestNewZipfConcurrent builds samplers for several thetas and sizes from
// many goroutines at once, the way parallel sweep workers generate their
// traces. Under -race it checks the memo's locking; every sampler must
// match one built from direct summation.
func TestNewZipfConcurrent(t *testing.T) {
	thetas := []float64{0.5, 0.9, 0.99}
	sizes := []int64{3, 5000, 70000, 1<<20 + 3}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range thetas {
				theta := thetas[(i+g)%len(thetas)]
				n := sizes[(i+g)%len(sizes)]
				z := NewZipf(n, theta)
				if want := zetaDirect(n, theta); math.Float64bits(z.zetan) != math.Float64bits(want) {
					t.Errorf("NewZipf(%d, %g).zetan = %v, direct summation %v", n, theta, z.zetan, want)
				}
			}
		}(g)
	}
	wg.Wait()
}
