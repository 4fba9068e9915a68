// Package core implements the paper's contribution: read-retry controllers
// that decide how a flash read's operations — page sensings, data transfers,
// ECC decodes, SET FEATURE and RESET commands — are sequenced.
//
// Five controllers are provided, matching §7.2's SSD configurations:
//
//   - Baseline: the regular read-retry of Figure 12(a) — each retry step
//     starts only after the previous step's ECC decode fails.
//   - PR2: Pipelined Read-Retry (Figure 12(b)) — the next retry step's
//     sensing starts speculatively via CACHE READ as soon as the current
//     sensing finishes; a RESET kills the unnecessary speculative step once
//     ECC succeeds.
//   - AR2: Adaptive Read-Retry (Figure 13) — on a read failure the
//     controller programs a reduced tPRE through SET FEATURE (the amount
//     chosen from the Read-timing Parameter Table) and performs all retry
//     steps with the shorter sensing latency, rolling the timing back after
//     the operation.
//   - PnAR2: both combined.
//   - NoRR: the ideal upper bound where no read ever retries.
//
// A controller's output is a Plan: a tree of resource-tagged operations.
// The SSD simulator executes plans under contention; Plan.Latency gives the
// uncontended makespan, which reproduces Equations 2–5 and the latency
// figures of §6.
package core

import (
	"fmt"
	"slices"
	"strings"

	"readretry/internal/sim"
)

// Scheme selects a read-retry controller.
type Scheme int

// The five SSD configurations of §7.2.
const (
	Baseline Scheme = iota
	PR2
	AR2
	PnAR2
	NoRR
)

var schemeNames = [...]string{"Baseline", "PR2", "AR2", "PnAR2", "NoRR"}

// String returns the configuration name used in the paper's figures.
func (s Scheme) String() string {
	if s < 0 || int(s) >= len(schemeNames) {
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
	return schemeNames[s]
}

// ParseScheme converts a configuration name (case-insensitive) to a Scheme.
func ParseScheme(name string) (Scheme, error) {
	for i, n := range schemeNames {
		if strings.EqualFold(name, n) {
			return Scheme(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown scheme %q (want one of %v)", name, schemeNames)
}

// Adaptive reports whether the scheme reduces read timing during retries.
func (s Scheme) Adaptive() bool { return s == AR2 || s == PnAR2 }

// Resource identifies the hardware unit an operation occupies.
type Resource int

// Resources inside one channel's read path. ResNone marks controller-side
// bookkeeping that consumes time but no contended unit.
const (
	ResNone Resource = iota
	ResDie
	ResChannel // the chip↔controller bus (DMA transfers)
	ResECC     // the per-channel ECC engine
)

// String names the resource.
func (r Resource) String() string {
	switch r {
	case ResNone:
		return "none"
	case ResDie:
		return "die"
	case ResChannel:
		return "channel"
	case ResECC:
		return "ecc"
	default:
		return fmt.Sprintf("Resource(%d)", int(r))
	}
}

// OpKind classifies plan operations.
type OpKind int

// Operation kinds appearing in read plans.
const (
	OpSense OpKind = iota
	OpDMA
	OpECC
	OpSetFeature
	OpReset
)

// String names the operation kind.
func (k OpKind) String() string {
	switch k {
	case OpSense:
		return "sense"
	case OpDMA:
		return "dma"
	case OpECC:
		return "ecc"
	case OpSetFeature:
		return "setfeature"
	case OpReset:
		return "reset"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one operation in a read plan. Deps hold indices of operations that
// must complete before this one starts; builders emit ops in topological
// order (every dependency index is smaller than the op's own index).
type Op struct {
	Kind OpKind
	Res  Resource
	Dur  sim.Time
	Deps []int
	// Step tags which retry step the op belongs to (0 = initial read),
	// for tracing and tests.
	Step int
}

// Plan is the operation tree for one complete page read, including all retry
// steps the page needs.
type Plan struct {
	Scheme Scheme
	NRR    int // retry steps planned (excluding the initial read)
	Ops    []Op
	// ResponseOp indexes the op whose completion delivers the page to the
	// host (the final successful ECC decode).
	ResponseOp int
	// ReleaseOp indexes the op whose completion frees the die for the next
	// transaction (speculative-step RESET, timing rollback, or final DMA).
	ReleaseOp int

	// succOff/succ are the flattened dependents adjacency, computed once by
	// Finalize so executors need not rebuild it per read:
	// succ[succOff[i]:succOff[i+1]] lists the ops depending on op i, in
	// ascending index order (the order the original per-read construction
	// produced). Plans from BuildPlan are always finalized.
	succOff []int32
	succ    []int32

	// kindDur totals the plan's operation durations by OpKind, computed by
	// Finalize. Memoized plans (plancache) therefore carry their latency
	// attribution for free: the retry-metrics layer reads KindTotal per
	// executed read without walking Ops.
	kindDur [OpReset + 1]sim.Time
}

// Finalize checks that the plan is a tree rooted at op 0 — op 0 depends on
// nothing and every other op on exactly one op — and computes its
// dependents adjacency. Every builder emits such trees, and the executor
// relies on it: it starts op 0 and then each op when its one parent
// completes, with no per-op wait counts. Finalize panics on any other
// shape. BuildPlan calls it on every plan it emits; hand-constructed plans
// must call it before being handed to an executor that uses Dependents.
func (p *Plan) Finalize() {
	p.kindDur = [OpReset + 1]sim.Time{}
	for i, op := range p.Ops {
		if want := min(i, 1); len(op.Deps) != want {
			panic(fmt.Sprintf("core: %v plan op %d has %d dependencies, want %d: plans are trees rooted at op 0",
				p.Scheme, i, len(op.Deps), want))
		}
		p.kindDur[op.Kind] += op.Dur
	}
	// Count each parent's dependents into succOff[parent+1], prefix-sum
	// into offsets, then fill. Filling in op order keeps each dependent
	// list ascending, matching the order a per-read append loop over Ops
	// would build.
	n := len(p.Ops)
	p.succOff = make([]int32, n+1)
	for i := 1; i < n; i++ {
		p.succOff[p.Ops[i].Deps[0]+1]++
	}
	for i := 1; i <= n; i++ {
		p.succOff[i] += p.succOff[i-1]
	}
	p.succ = make([]int32, max(n-1, 0))
	next := slices.Clone(p.succOff[:n])
	for i := 1; i < n; i++ {
		d := p.Ops[i].Deps[0]
		p.succ[next[d]] = int32(i)
		next[d]++
	}
}

// Dependents returns the indices of the ops that depend on op i. The slice
// aliases the plan's finalized adjacency and must not be modified.
func (p *Plan) Dependents(i int) []int32 {
	return p.succ[p.succOff[i]:p.succOff[i+1]]
}

// KindTotal returns the plan's total operation duration of kind k — resource
// occupancy, not critical path. Valid on finalized plans.
func (p *Plan) KindTotal(k OpKind) sim.Time {
	return p.kindDur[k]
}

// Latency returns the uncontended makespan from plan start to host
// response: the longest dependency path into ResponseOp. Under Table 1
// timings no two ops of one plan compete for the same resource at the same
// instant (tR exceeds tDMA + tECC), so this equals the contention-free
// execution time; the plan_test suite asserts that property.
func (p Plan) Latency() sim.Time {
	return p.finishTimes()[p.ResponseOp]
}

// DieHold returns the uncontended time from plan start until the die is
// released to the next transaction.
func (p Plan) DieHold() sim.Time {
	return p.finishTimes()[p.ReleaseOp]
}

// ChannelTime returns the total bus occupancy of the plan (the sum of DMA
// durations) — the bandwidth cost other dies on the channel observe.
func (p Plan) ChannelTime() sim.Time {
	var total sim.Time
	for _, op := range p.Ops {
		if op.Res == ResChannel {
			total += op.Dur
		}
	}
	return total
}

func (p Plan) finishTimes() []sim.Time {
	finish := make([]sim.Time, len(p.Ops))
	for i, op := range p.Ops {
		var start sim.Time
		for _, d := range op.Deps {
			if finish[d] > start {
				start = finish[d]
			}
		}
		finish[i] = start + op.Dur
	}
	return finish
}

// Validate checks structural invariants: topological dep order and index
// range. Builders always produce valid plans; the check exists for tests
// and for plans deserialized or constructed by hand.
func (p Plan) Validate() error {
	if p.ResponseOp < 0 || p.ResponseOp >= len(p.Ops) {
		return fmt.Errorf("core: ResponseOp %d out of range", p.ResponseOp)
	}
	if p.ReleaseOp < 0 || p.ReleaseOp >= len(p.Ops) {
		return fmt.Errorf("core: ReleaseOp %d out of range", p.ReleaseOp)
	}
	for i, op := range p.Ops {
		for _, d := range op.Deps {
			if d < 0 || d >= i {
				return fmt.Errorf("core: op %d dependency %d not topologically ordered", i, d)
			}
		}
		if op.Dur < 0 {
			return fmt.Errorf("core: op %d has negative duration", i)
		}
	}
	return nil
}
