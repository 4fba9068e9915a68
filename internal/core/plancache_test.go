package core

import (
	"reflect"
	"sync"
	"testing"

	"readretry/internal/sim"
)

func cacheTestTimings() StepTimings {
	return StepTimings{
		SenseDefault: 90 * sim.Microsecond,
		SenseReduced: 68 * sim.Microsecond,
		DMA:          16 * sim.Microsecond,
		ECC:          20 * sim.Microsecond,
		Set:          1 * sim.Microsecond,
		Reset:        5 * sim.Microsecond,
	}
}

// TestCachedPlanMatchesBuildPlan compares the memoized plan against a direct
// BuildPlan for every scheme × nrr 0..MaxLadderSteps × ablation option, and
// checks the cache returns one canonical pointer per key.
func TestCachedPlanMatchesBuildPlan(t *testing.T) {
	const maxLadderSteps = 40 // DefaultParams().MaxLadderSteps
	tm := cacheTestTimings()
	opts := []Options{
		{},
		{NoSpeculativeReset: true},
		{PerStepSetFeature: true},
		{NoSpeculativeReset: true, PerStepSetFeature: true},
	}
	for _, s := range []Scheme{Baseline, PR2, AR2, PnAR2, NoRR} {
		for nrr := 0; nrr <= maxLadderSteps; nrr++ {
			for _, o := range opts {
				cached := CachedPlan(s, nrr, tm, o)
				direct := BuildPlan(s, nrr, tm, o)
				if !reflect.DeepEqual(*cached, direct) {
					t.Fatalf("%v nrr=%d opts=%+v: cached plan differs from BuildPlan", s, nrr, o)
				}
				if again := CachedPlan(s, nrr, tm, o); again != cached {
					t.Fatalf("%v nrr=%d opts=%+v: second lookup returned a different pointer", s, nrr, o)
				}
				if err := finalizeErr(*cached); err != nil {
					t.Fatalf("%v nrr=%d: cached plan invalid: %v", s, nrr, err)
				}
			}
		}
	}
}

// TestCachedPlanNormalization checks that the inputs BuildPlan normalizes
// (negative nrr, NoRR's ignored nrr) share one cache entry.
func TestCachedPlanNormalization(t *testing.T) {
	tm := cacheTestTimings()
	if CachedPlan(NoRR, 7, tm, Options{}) != CachedPlan(NoRR, 0, tm, Options{}) {
		t.Fatal("NoRR plans with different nrr should share an entry")
	}
	if CachedPlan(Baseline, -3, tm, Options{}) != CachedPlan(Baseline, 0, tm, Options{}) {
		t.Fatal("negative nrr should normalize to 0")
	}
	if CachedPlan(Baseline, 1, tm, Options{}) == CachedPlan(Baseline, 2, tm, Options{}) {
		t.Fatal("distinct nrr must not share an entry")
	}
}

// TestCachedPlanConcurrent hammers the cache from many goroutines; under
// -race this verifies both the cache's own synchronization and that reading
// shared plans concurrently is safe.
func TestCachedPlanConcurrent(t *testing.T) {
	tm := cacheTestTimings()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				nrr := (g + i) % 12
				p := CachedPlan(PnAR2, nrr, tm, Options{})
				// Walk the shared adjacency the way an executor would.
				total := 0
				for op := range p.Ops {
					total += len(p.Dependents(op))
					if p.Ops[op].Parent >= 0 {
						total++
					}
				}
				if total == 0 && nrr > 0 {
					t.Errorf("plan nrr=%d has no edges", nrr)
				}
				_ = p.Latency()
			}
		}(g)
	}
	wg.Wait()
}

// TestDependentsMatchesDeps cross-checks the finalized adjacency against the
// per-op parent links it was derived from, including ascending order.
func TestDependentsMatchesDeps(t *testing.T) {
	tm := cacheTestTimings()
	for _, s := range []Scheme{Baseline, PR2, AR2, PnAR2} {
		for _, nrr := range []int{0, 1, 5, 17} {
			p := BuildPlan(s, nrr, tm, Options{})
			want := make([][]int32, len(p.Ops))
			for i, op := range p.Ops {
				if op.Parent >= 0 {
					want[op.Parent] = append(want[op.Parent], int32(i))
				}
			}
			for i := range p.Ops {
				got := p.Dependents(i)
				if len(got) != len(want[i]) {
					t.Fatalf("%v nrr=%d op %d: %d dependents, want %d", s, nrr, i, len(got), len(want[i]))
				}
				for j := range got {
					if got[j] != want[i][j] {
						t.Fatalf("%v nrr=%d op %d: dependents %v, want %v", s, nrr, i, got, want[i])
					}
				}
			}
		}
	}
}

// TestThenHangsReReadUnderRelease pins §6.2's fallback tree: the re-read's
// root hangs under the failed pass's ReleaseOp, the host waits for the
// pass's die hold plus the re-read's latency, the die is held through
// both passes, the latency attribution sums both, and CachedFallback
// memoizes exactly that tree.
func TestThenHangsReReadUnderRelease(t *testing.T) {
	tm := cacheTestTimings()
	for _, s := range []Scheme{Baseline, PR2, AR2, PnAR2} {
		for _, nrr := range []int{0, 3, 17} {
			const fbNRR = 5
			pass := BuildPlan(s, nrr, tm, Options{})
			reread := BuildPlan(Baseline, fbNRR, tm, Options{})
			p := pass.Then(reread)
			root := len(pass.Ops)
			if len(p.Ops) != root+len(reread.Ops) || p.Ops[root].Parent != pass.ReleaseOp {
				t.Fatalf("%v nrr=%d: %d ops, re-read root's parent %d, want %d ops under op %d",
					s, nrr, len(p.Ops), p.Ops[root].Parent, root+len(reread.Ops), pass.ReleaseOp)
			}
			if got, want := p.Latency(), pass.DieHold()+reread.Latency(); got != want {
				t.Errorf("%v nrr=%d: latency %v, want pass hold + re-read latency %v", s, nrr, got, want)
			}
			if got, want := p.DieHold(), pass.DieHold()+reread.DieHold(); got != want {
				t.Errorf("%v nrr=%d: die hold %v, want %v", s, nrr, got, want)
			}
			for k := OpSense; k <= OpReset; k++ {
				if got, want := p.KindTotal(k), pass.KindTotal(k)+reread.KindTotal(k); got != want {
					t.Errorf("%v nrr=%d: %v total %v, want %v", s, nrr, k, got, want)
				}
			}
			if p.NRR != pass.NRR+fbNRR {
				t.Errorf("%v nrr=%d: NRR %d, want %d", s, nrr, p.NRR, pass.NRR+fbNRR)
			}
			cached := CachedFallback(s, nrr, fbNRR, tm)
			if !reflect.DeepEqual(*cached, p) {
				t.Fatalf("%v nrr=%d: CachedFallback differs from BuildPlan(...).Then(...)", s, nrr)
			}
			if CachedFallback(s, nrr, fbNRR, tm) != cached {
				t.Fatalf("%v nrr=%d: second lookup returned a different pointer", s, nrr)
			}
		}
	}
}

// TestBuildPlanAllocations bounds what one plan costs to build: the op
// slice and the finalized adjacency, not a slice per op.
func TestBuildPlanAllocations(t *testing.T) {
	tm := cacheTestTimings()
	for _, s := range []Scheme{Baseline, PR2, AR2, PnAR2, NoRR} {
		allocs := testing.AllocsPerRun(20, func() { BuildPlan(s, 40, tm, Options{}) })
		if allocs > 12 {
			t.Errorf("%v at nrr=40: %.0f allocations, want at most 12", s, allocs)
		}
	}
}
