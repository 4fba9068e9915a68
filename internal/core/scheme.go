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

// Op is one operation in a read plan. Parent indexes the one operation
// that must complete before this one starts, or is -1 for the plan's root,
// op 0; builders emit ops in topological order (every parent index is
// smaller than the op's own index).
type Op struct {
	Kind   OpKind
	Res    Resource
	Dur    sim.Time
	Parent int
	// Step tags which retry step the op belongs to (0 = initial read),
	// for tracing and tests.
	Step int
}

// Plan is the operation tree for one complete page read, including all retry
// steps the page needs.
type Plan struct {
	Scheme Scheme
	// NRR is the retry steps planned, excluding the initial read; a plan
	// built by Then counts both passes' steps.
	NRR int
	Ops []Op
	// ResponseOp indexes the op whose completion delivers the page to the
	// host (the final successful ECC decode).
	ResponseOp int
	// ReleaseOp indexes the op whose completion frees the die for the next
	// transaction (speculative-step RESET, timing rollback, or final DMA).
	ReleaseOp int

	// succOff/succ are the flattened dependents adjacency, computed once by
	// Finalize so executors need not rebuild it per read:
	// succ[succOff[i]:succOff[i+1]] lists the ops whose parent is op i, in
	// ascending index order. Plans from BuildPlan and Then are always
	// finalized.
	succOff []int32
	succ    []int32

	// kindDur totals the plan's operation durations by OpKind, computed by
	// Finalize. Memoized plans (plancache) therefore carry their latency
	// attribution for free: the retry-metrics layer reads KindTotal per
	// executed read without walking Ops.
	kindDur [OpReset + 1]sim.Time
}

// Finalize checks that the plan is a tree rooted at op 0 — op 0 has no
// parent and every other op's parent comes before it — that its response
// and release ops exist and that no op has a negative duration; then it
// computes the dependents adjacency. Every builder emits such trees, and
// the executor relies on it: it starts op 0 and then each op when its
// parent completes, with no per-op wait counts. Finalize panics on any
// other shape. BuildPlan and Then call it on every plan they emit;
// hand-constructed plans must call it before being handed to an executor.
func (p *Plan) Finalize() {
	n := len(p.Ops)
	if p.ResponseOp < 0 || p.ResponseOp >= n || p.ReleaseOp < 0 || p.ReleaseOp >= n {
		panic(fmt.Sprintf("core: %v plan of %d ops responds at op %d and releases at op %d",
			p.Scheme, n, p.ResponseOp, p.ReleaseOp))
	}
	p.kindDur = [OpReset + 1]sim.Time{}
	p.succOff = make([]int32, n+1)
	for i, op := range p.Ops {
		if parent := op.Parent; (i == 0 && parent != -1) || (i > 0 && (parent < 0 || parent >= i)) {
			panic(fmt.Sprintf("core: %v plan op %d has parent %d: plans are trees rooted at op 0",
				p.Scheme, i, op.Parent))
		}
		if op.Dur < 0 {
			panic(fmt.Sprintf("core: %v plan op %d has negative duration %v", p.Scheme, i, op.Dur))
		}
		p.kindDur[op.Kind] += op.Dur
		// Count each parent's dependents into succOff[parent+1]; the
		// prefix sum below turns the counts into offsets.
		if i > 0 {
			p.succOff[op.Parent+1]++
		}
	}
	for i := 1; i <= n; i++ {
		p.succOff[i] += p.succOff[i-1]
	}
	// Filling in op order keeps each dependent list ascending.
	p.succ = make([]int32, max(n-1, 0))
	next := slices.Clone(p.succOff[:n])
	for i := 1; i < n; i++ {
		d := p.Ops[i].Parent
		p.succ[next[d]] = int32(i)
		next[d]++
	}
}

// Then returns the plan that runs p and, when p's ReleaseOp completes,
// next on the same die: next's root hangs under p's ReleaseOp, and next's
// response and release are the result's. It is §6.2's AR² worst case, a
// failed reduced-timing pass followed by the default-timing re-read. The
// re-read starts when the pass would have freed the die; so that it also
// starts before anything else the pass still has to run, p's ReleaseOp
// should have no dependents of its own, as an adaptive scheme's has not at
// any depth a failed pass reaches.
func (p Plan) Then(next Plan) Plan {
	off := len(p.Ops)
	ops := make([]Op, off, off+len(next.Ops))
	copy(ops, p.Ops)
	for _, op := range next.Ops {
		if op.Parent < 0 {
			op.Parent = p.ReleaseOp
		} else {
			op.Parent += off
		}
		ops = append(ops, op)
	}
	q := Plan{Scheme: p.Scheme, NRR: p.NRR + next.NRR, Ops: ops,
		ResponseOp: next.ResponseOp + off, ReleaseOp: next.ReleaseOp + off}
	q.Finalize()
	return q
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
// response: the path from op 0 down to ResponseOp. Under Table 1
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
		if op.Parent >= 0 {
			start = finish[op.Parent]
		}
		finish[i] = start + op.Dur
	}
	return finish
}
