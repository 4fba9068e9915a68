// Package rng provides the deterministic random-number machinery used across
// the simulator: a splittable xoshiro256++ generator plus the sampling
// distributions the workload generators need (uniform, exponential,
// Zipfian, YCSB scrambled-Zipfian, latest).
//
// Reproducibility is a hard requirement for the experiment harness: every
// figure in EXPERIMENTS.md must regenerate bit-identically from a seed, so
// the package does not use math/rand's global state anywhere.
package rng

import (
	"math"
	"math/bits"
	"sync"
)

// State is the bare xoshiro256++ state as a value type. It backs Source and
// is exposed directly for allocation-free derivation chains: hot paths (the
// V_TH model draws per-page variates for every simulated read) can hold a
// State on the stack, advance it, and derive child seeds with SplitKey
// without a single heap allocation, producing streams bit-identical to the
// equivalent New/Split/Float64 call chain.
type State [4]uint64

// SeedState returns the state New(seed) would start from: four SplitMix64
// outputs, guaranteeing a well-mixed nonzero state for any seed, including 0.
func SeedState(seed uint64) State {
	var st State
	sm := seed
	for i := range st {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		st[i] = z ^ (z >> 31)
	}
	return st
}

// SplitKey derives the child seed Split(label) would use, without advancing
// or allocating anything: SeedState(st.SplitKey(label)) is exactly the state
// of the child Source.Split(label) returns.
func (st *State) SplitKey(label uint64) uint64 {
	h := st[0] ^ (st[1] << 1) ^ (st[2] << 2) ^ (st[3] << 3)
	return h ^ (label * 0xd1342543de82ef95)
}

// Uint64 returns the next 64 uniformly random bits, advancing the state.
func (st *State) Uint64() uint64 {
	result := rotl(st[0]+st[3], 23) + st[0]
	t := st[1] << 17
	st[2] ^= st[0]
	st[3] ^= st[1]
	st[1] ^= st[2]
	st[0] ^= st[3]
	st[2] ^= t
	st[3] = rotl(st[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1), advancing the state.
func (st *State) Float64() float64 {
	return float64(st.Uint64()>>11) / (1 << 53)
}

// Source is a deterministic xoshiro256++ PRNG. The zero value is not usable;
// construct with New or Split.
type Source struct {
	s State
}

// New returns a Source seeded from seed via SplitMix64, which guarantees a
// well-mixed nonzero state for any seed, including 0.
func New(seed uint64) *Source {
	return &Source{s: SeedState(seed)}
}

// Split derives an independent child generator keyed by label. Two children
// with different labels produce uncorrelated streams; the parent stream is
// not disturbed. This is how the chip model gives every (chip, block, page)
// its own reproducible randomness regardless of visit order.
func (r *Source) Split(label uint64) *Source {
	// Mix the current state (without advancing it) with the label through
	// SplitMix64 so children are decorrelated from the parent and each other.
	return New(r.s.SplitKey(label))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	return r.s.Uint64()
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return r.s.Float64()
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Lemire's multiply-shift with rejection keeps the result exactly uniform.
	threshold := (-n) % n
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= threshold {
			return hi
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (r *Source) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Zipf samples from a Zipfian distribution over {0, …, n-1} with exponent
// theta (YCSB uses theta = 0.99). It implements Gray et al.'s rejection-free
// inverse method used by YCSB's ZipfianGenerator.
type Zipf struct {
	n     int64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// NewZipf builds a Zipfian sampler over n items. It panics if n < 1 or
// theta is not in (0, 1).
func NewZipf(n int64, theta float64) *Zipf {
	if n < 1 {
		panic("rng: Zipf with n < 1")
	}
	if theta <= 0 || theta >= 1 {
		panic("rng: Zipf theta must be in (0,1)")
	}
	z := &Zipf{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n int64, theta float64) float64 {
	// Exact summation up to a cap, then the Euler–Maclaurin integral tail;
	// for the population sizes the workloads use (≤ 2^28) the approximation
	// error is far below sampling noise. The exact part resumes from the
	// memoized prefix sum below n, so it adds the same terms in the same
	// left-to-right order as a direct summation and is bit-identical to it.
	const maxExact = 1 << 20
	limit := min(n, maxExact)
	done := limit / zetaStride * zetaStride
	sum := zetaPrefix(done/zetaStride, theta)
	for i := done + 1; i <= limit; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	if n > limit {
		// ∫_{limit}^{n} x^-theta dx
		a := 1 - theta
		sum += (math.Pow(float64(n), a) - math.Pow(float64(limit), a)) / a
	}
	return sum
}

// zetaStride is the spacing of zeta's memoized prefix sums.
const zetaStride = 4096

// zetaMemo holds, per theta, the running sum of 1/i^theta at every
// zetaStride terms: sums[theta][k] adds terms 1..k·zetaStride left to right.
// A sweep builds a Zipf sampler per workload trace, and without the memo
// each one re-summed up to 2^20 terms.
var zetaMemo = struct {
	sync.Mutex
	sums map[float64][]float64
}{sums: make(map[float64][]float64)}

// zetaPrefix returns the sum of the first k·zetaStride terms of zeta's
// series, extending the theta's memo as far as needed.
func zetaPrefix(k int64, theta float64) float64 {
	if k == 0 {
		return 0
	}
	zetaMemo.Lock()
	defer zetaMemo.Unlock()
	sums := zetaMemo.sums[theta]
	if sums == nil {
		sums = []float64{0}
	}
	for int64(len(sums)) <= k {
		from := int64(len(sums)-1) * zetaStride
		sum := sums[len(sums)-1]
		for i := from + 1; i <= from+zetaStride; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		sums = append(sums, sum)
	}
	zetaMemo.sums[theta] = sums
	return sums[k]
}

// N returns the population size.
func (z *Zipf) N() int64 { return z.n }

// Sample draws the next rank in [0, n), rank 0 being the most popular.
func (z *Zipf) Sample(r *Source) int64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	v := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v < 0 {
		v = 0
	}
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// ScrambledSample draws a Zipfian rank and scatters it uniformly over the key
// space with a 64-bit hash, matching YCSB's ScrambledZipfianGenerator: the
// popularity distribution is Zipfian but the popular keys are spread across
// the whole space rather than clustered at 0.
func (z *Zipf) ScrambledSample(r *Source) int64 {
	rank := z.Sample(r)
	return int64(fnvMix(uint64(rank)) % uint64(z.n))
}

func fnvMix(x uint64) uint64 {
	// FNV-1a over the 8 bytes of x, then a finalizing avalanche.
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= (x >> (8 * i)) & 0xff
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Latest samples from YCSB's "latest" distribution over a growing population:
// item n-1 (the most recently inserted) is the most popular, with Zipfian
// decay toward older items.
type Latest struct {
	zipf *Zipf
}

// NewLatest builds a latest-distribution sampler over n initial items.
func NewLatest(n int64, theta float64) *Latest {
	return &Latest{zipf: NewZipf(n, theta)}
}

// Sample draws an index in [0, max); index max-1 is most popular.
func (l *Latest) Sample(r *Source, max int64) int64 {
	if max <= 0 {
		return 0
	}
	rank := l.zipf.Sample(r)
	if rank >= max {
		rank = rank % max
	}
	return max - 1 - rank
}
