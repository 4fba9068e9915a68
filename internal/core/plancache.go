package core

import "sync"

// planKey identifies a plan exactly: everything BuildPlan's output depends
// on. All fields are comparable values, so the key works directly as a map
// key.
type planKey struct {
	scheme Scheme
	nrr    int
	t      StepTimings
	opts   Options
}

// planCache memoizes BuildPlan. For one device configuration there are only
// ~MaxLadderSteps distinct (scheme, nrr, timings, options) combinations per
// cell — a regular read plan was being rebuilt (op slice, dep slices, and
// adjacency) for every one of the millions of page reads in a trace.
//
// The cache is safe for concurrent use and returns shared *Plan values.
// Shared plans are immutable by contract: executors must treat every slice
// reachable from a Plan as read-only (the ssd executor keeps all mutable
// per-run state in its own scratch, enforced under -race by the plan-sharing
// tests).
type planCache struct {
	mu sync.RWMutex
	m  map[planKey]*Plan
}

var sharedPlans = planCache{m: make(map[planKey]*Plan)}

// CachedPlan returns the memoized, immutable plan for the given inputs,
// building it on first use. The result is shared across callers and
// goroutines and is identical (reflect.DeepEqual) to what BuildPlan returns
// for the same inputs.
func CachedPlan(s Scheme, nrr int, t StepTimings, opts Options) *Plan {
	// Normalize exactly as BuildPlan does so equivalent inputs share an
	// entry ("NoRR, nrr=7" and "NoRR, nrr=0" build the same plan).
	if nrr < 0 {
		nrr = 0
	}
	if s == NoRR {
		nrr = 0
	}
	key := planKey{scheme: s, nrr: nrr, t: t, opts: opts}
	sharedPlans.mu.RLock()
	p, ok := sharedPlans.m[key]
	sharedPlans.mu.RUnlock()
	if ok {
		return p
	}
	built := BuildPlan(s, nrr, t, opts)
	sharedPlans.mu.Lock()
	// Re-check under the write lock; keep the first stored plan so every
	// caller observes one canonical pointer.
	if existing, ok := sharedPlans.m[key]; ok {
		sharedPlans.mu.Unlock()
		return existing
	}
	sharedPlans.m[key] = &built
	sharedPlans.mu.Unlock()
	return &built
}

// fallbackKey identifies a fallback plan: the scheme's failed pass of nrr
// retry steps, then Baseline's default-timing re-read of fbNRR steps.
type fallbackKey struct {
	scheme     Scheme
	nrr, fbNRR int
	t          StepTimings
}

// fallbackPlans memoizes CachedFallback apart from sharedPlans, whose
// lookup runs for every read: fallbacks are rare (none at the paper's RPT
// margin), so one mutex guards them.
var fallbackPlans = struct {
	mu sync.Mutex
	m  map[fallbackKey]*Plan
}{m: make(map[fallbackKey]*Plan)}

// CachedFallback returns the memoized, immutable plan of §6.2's AR² worst
// case: BuildPlan(s, nrr, t, Options{}) followed, through Then, by the
// Baseline re-read of fbNRR retry steps. Like CachedPlan's, the result is
// shared and must not be modified.
func CachedFallback(s Scheme, nrr, fbNRR int, t StepTimings) *Plan {
	key := fallbackKey{scheme: s, nrr: nrr, fbNRR: fbNRR, t: t}
	fallbackPlans.mu.Lock()
	defer fallbackPlans.mu.Unlock()
	p, ok := fallbackPlans.m[key]
	if !ok {
		built := BuildPlan(s, nrr, t, Options{}).Then(BuildPlan(Baseline, fbNRR, t, Options{}))
		p = &built
		fallbackPlans.m[key] = p
	}
	return p
}
