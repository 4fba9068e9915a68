// Package coord is the one distribution path for sweeps: a coordinator
// that serves one or many sweeps' shard work-queues to worker processes
// over HTTP, with lease/heartbeat fault tolerance and an incremental merge
// that consumes completion records as shards land. Every multi-process
// mode of cmd/repro (-serve, -worker, -submit, -spawn-shards) runs on it.
//
// The division of labor:
//
//   - Coordinator is the transport-free state machine: jobs (one per
//     submitted sweep, deduplicated by ConfigHash), per-shard lease state
//     (pending → leased → done; a shard whose lease passed its deadline
//     is leasable again), and the incremental merge. Time is injected through Clock, so every lease
//     transition is testable on a fake clock with no sleeping.
//   - Server/Client (http.go) put the state machine on the wire: POST
//     /submit, /lease, /heartbeat, /complete; GET /job, /result.
//   - Worker (worker.go) is the pull loop a worker process runs: lease,
//     execute via shard.Run (crash-resumable through its local cellcache
//     tier), heartbeat while running, stream the completion record back.
//   - Recover (journal.go) makes the coordinator crash-safe: each merged
//     measurement is kept once, in the cell store (Options.Cache), and a
//     write-ahead journal holds the submissions and one marker per
//     accepted completion.
//
// The correctness bar: however the work is distributed, re-leased after worker deaths, or completed twice,
// the merged Result — and its CSV bytes — must be identical to a
// single-process experiments.RunSweep of the same configuration. The
// fault-injection suite in this package enforces exactly that.
package coord

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"readretry/internal/experiments"
	"readretry/internal/experiments/cellcache"
	"readretry/internal/experiments/shard"
)

// Clock abstracts time for the lease state machine. The coordinator never
// sleeps or sets timers through it — expiry is evaluated against Now()
// whenever a lease is granted or renewed — so a test clock only needs a
// settable Now.
type Clock interface {
	Now() time.Time
}

type systemClock struct{}

func (systemClock) Now() time.Time {
	return time.Now() //lint:wallclock the injectable clock seam itself; every other read goes through Clock
}

// SystemClock returns the wall clock.
func SystemClock() Clock { return systemClock{} }

// DefaultLeaseTTL is how long a lease stays valid without a heartbeat.
// Three missed heartbeats at the Worker's TTL/3 cadence lose the lease.
const DefaultLeaseTTL = 15 * time.Second

// Spec is the wire-portable definition of one sweep: the
// experiments.Definition, whose JSON tags are the wire form, plus the
// variant roster. Process-local fields (Parallelism, Progress, Sink,
// Cache) are not part of it: each worker chooses its own.
type Spec struct {
	experiments.Definition
	Variants []experiments.Variant `json:"variants"`
}

// SpecOf extracts the wire-portable spec of a configuration.
func SpecOf(cfg experiments.Config, variants []experiments.Variant) Spec {
	return Spec{Definition: cfg.Definition, Variants: variants}
}

// Config reconstructs the experiments.Config the spec describes, with
// every process-local field zero (the caller sets Parallelism and Cache
// for its own machine).
func (s Spec) Config() experiments.Config { return experiments.Config{Definition: s.Definition} }

// ErrUnknownLease reports an operation on a lease ID the coordinator never
// issued.
var ErrUnknownLease = errors.New("coord: unknown lease")

// ErrLeaseExpired reports an operation on a lease whose deadline has
// passed (or whose shard has since completed, or been re-leased). The
// worker holding it must stop assuming ownership of the shard; any
// completion record it still delivers is merged idempotently.
var ErrLeaseExpired = errors.New("coord: lease expired")

// ErrBadRecord reports a completion record that is internally inconsistent
// (a manifest naming no shard, results that are not the cells it derives
// over the job's grid). Unlike a foreign record it cannot be attributed to
// another sweep; it is a worker bug, rejected outright.
var ErrBadRecord = errors.New("coord: malformed completion record")

// ForeignRecordError is the typed rejection for a completion record whose
// ConfigHash matches no submitted job: the worker ran a different sweep
// than anything the coordinator is tracking (mismatched flags, a stale
// worker from an earlier deployment). The record is not merged — a foreign
// hash means foreign measurements, and accepting them is exactly the
// silent corruption the hash exists to prevent.
type ForeignRecordError struct {
	// ConfigHash is the record's hash; Jobs counts the sweeps the
	// coordinator does track, to distinguish "wrong flags" from "nothing
	// submitted yet" in the message.
	ConfigHash string
	Jobs       int
}

func (e *ForeignRecordError) Error() string {
	return fmt.Sprintf("coord: completion record for foreign configuration %.12s… (no matching job among %d submitted); the worker ran a different sweep than anything this coordinator tracks",
		e.ConfigHash, e.Jobs)
}

// Lease is one granted work unit: everything a worker needs to execute the
// shard (the self-contained spec and manifest) plus the lease identity and
// TTL it must heartbeat within. Deadline is the coordinator's clock, sent
// for observability only — workers pace heartbeats off TTL, never off a
// cross-machine timestamp comparison.
type Lease struct {
	ID       string         `json:"lease_id"`
	JobID    string         `json:"job_id"`
	Spec     Spec           `json:"spec"`
	Manifest shard.Manifest `json:"manifest"`
	TTL      time.Duration  `json:"ttl_ns"`
	Deadline time.Time      `json:"deadline"`
}

type shardStatus uint8

const (
	shardPending shardStatus = iota // waiting for its first worker
	shardLeased                     // held by leaseID until deadline
	shardDone                       // a valid completion record covered it
)

// shardState is the one record of a shard's lease: while status is
// shardLeased, leaseID holds it and is valid strictly before deadline.
type shardState struct {
	status   shardStatus
	leaseID  string
	deadline time.Time
}

// leasable reports whether the shard can be granted at now: it is pending,
// or its lease has reached its deadline (expired exactly at it, a sharp
// boundary the property tests pin down to the nanosecond).
func (s shardState) leasable(now time.Time) bool {
	return s.status == shardPending || s.status == shardLeased && !now.Before(s.deadline)
}

// leaseSlot locates the shard a lease ID was granted on.
type leaseSlot struct {
	job   *Job
	shard int
}

// Job is one submitted sweep: its plan, per-shard lease state, and the
// incremental merge. ID is the sweep's ConfigHash — the natural
// deduplication key, so concurrent clients submitting the same sweep share
// one job (and one set of simulations). All mutable state is guarded by
// the owning Coordinator's mutex; result and err are immutable once done
// is closed.
type Job struct {
	ID   string
	Spec Spec

	grid *experiments.Grid
	plan *shard.Plan
	// keys holds each cell's content address, derived by Submit from the
	// grid (only when the coordinator has a cache). Complete stores new
	// cells under these keys, never under anything a worker sent.
	keys []string

	shards    []shardState
	got       []cellcache.Measurement
	have      []bool
	remaining int // cells not yet merged
	result    *experiments.Result
	err       error
	done      chan struct{}
}

// Done is closed when the job has finalized (result or error available).
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the merged result once Done is closed. Calling it earlier
// returns an error rather than a partial grid.
func (j *Job) Result() (*experiments.Result, error) {
	select {
	case <-j.done:
		return j.result, j.err
	default:
		return nil, fmt.Errorf("coord: job %.12s… not complete", j.ID)
	}
}

// JobStatus is a point-in-time snapshot of one job.
type JobStatus struct {
	ID         string `json:"job_id"`
	TotalCells int    `json:"total_cells"`
	CellsDone  int    `json:"cells_done"`
	ShardCount int    `json:"shard_count"`
	ShardsDone int    `json:"shards_done"`
	Done       bool   `json:"done"`
	Err        string `json:"error,omitempty"`
}

// Options configures a Coordinator.
type Options struct {
	// Clock injects time; nil selects the wall clock.
	Clock Clock
	// LeaseTTL is how long a lease survives without a heartbeat; 0 selects
	// DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Cache, when non-nil, is the coordinator's cell store: every merged
	// measurement is written to it, and each submission probes it first —
	// so a sweep overlapping an earlier one (fig15 sharing fig14's
	// Baseline and NoRR cells, a re-submitted grid after a daemon restart)
	// starts with those cells already merged and only leases out the
	// rest. Recover defaults a nil Cache to a disk tier under its state
	// dir: the one durable copy of every merged cell.
	Cache cellcache.Cache
}

// Coordinator is the transport-free sweep service: submitted jobs, the
// shard work-queue, lease lifecycle, and the incremental merge. All
// methods are safe for concurrent use.
type Coordinator struct {
	clock Clock
	ttl   time.Duration
	cache cellcache.Cache

	mu sync.Mutex
	// journal, when non-nil (Recover attaches it), is the write-ahead log
	// of submissions and completion markers: Submit and Complete append —
	// and fsync — before mutating state, so anything the coordinator has
	// acknowledged is replayable after a crash. See journal.go.
	journal *Journal // guarded by mu
	// draining refuses new leases (graceful shutdown: in-flight completes
	// still merge, heartbeats still answer, but no new work goes out).
	draining bool            // guarded by mu
	jobs     map[string]*Job // guarded by mu; by ConfigHash
	order    []*Job          // guarded by mu; submission order, for fair lease scanning
	// leases indexes every lease ID issued for a job that has not
	// finalized; only the shard's state says whether that lease is live.
	leases map[string]leaseSlot // guarded by mu
	seq    uint64               // guarded by mu
}

// New builds a Coordinator.
func New(opts Options) *Coordinator {
	c := &Coordinator{
		clock:  opts.Clock,
		ttl:    opts.LeaseTTL,
		cache:  opts.Cache,
		jobs:   make(map[string]*Job),
		leases: make(map[string]leaseSlot),
	}
	if c.clock == nil {
		c.clock = SystemClock()
	}
	if c.ttl <= 0 {
		c.ttl = DefaultLeaseTTL
	}
	return c
}

// LeaseTTL returns the configured lease lifetime.
func (c *Coordinator) LeaseTTL() time.Duration { return c.ttl }

// Drain puts the coordinator into graceful-shutdown mode: Lease refuses
// new grants while everything already in flight still lands — heartbeats
// renew, completion records merge (and journal), results stay readable.
// Drain is how SIGTERM stops the bleeding without discarding acknowledged
// work; it is not reversible.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
}

// Close flushes and detaches the journal, if any (a coordinator built by
// New rather than Recover has none and Close is a no-op). Call it only
// after the transport has stopped delivering requests: a Submit or
// Complete accepted after Close would no longer be journaled.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	jl := c.journal
	c.journal = nil
	c.draining = true
	c.mu.Unlock()
	if jl != nil {
		return jl.Close()
	}
	return nil
}

// Submit registers a sweep, partitioned into shards work units, and
// returns its job. Submitting a sweep whose ConfigHash is already tracked
// returns the existing job regardless of the requested shard count —
// concurrent clients asking for the same grid share one execution. The
// spec is checked by experiments.NewGrid, as RunSweep and shard.Run check
// it, so a sweep with any cell that would fail in the workers, or with
// more than experiments.MaxCells cells, is refused at the door. When the
// coordinator has a Cache, cells it already knows are merged immediately
// and shards fully covered by them are born done; a fully cached sweep
// completes without a single lease. A shard count above the grid's cell
// count (or 1, for an empty grid) is clamped to it: the shards beyond it
// would be empty, done at birth, so the merged result is the same, and a
// client cannot make the coordinator allocate a manifest per requested
// shard.
func (c *Coordinator) Submit(spec Spec, shards int) (*Job, error) {
	cfg := spec.Config()
	grid, err := experiments.NewGrid(cfg, spec.Variants)
	if err != nil {
		return nil, err
	}
	shards = min(shards, max(grid.Total(), 1))
	plan, err := shard.Partition(cfg, grid, shards)
	if err != nil {
		return nil, err
	}
	if j, ok := c.Job(plan.ConfigHash); ok {
		return j, nil
	}

	// Build the job outside the mutex: deriving the keys hashes every
	// cell (~2 µs a cell on a 2-core Xeon), and the store probes may
	// touch disk, so a MaxCells grid would otherwise stall every lease and
	// heartbeat for seconds.
	total := grid.Total()
	j := &Job{
		ID:        plan.ConfigHash,
		Spec:      spec,
		grid:      grid,
		plan:      plan,
		shards:    make([]shardState, len(plan.Shards)),
		got:       make([]cellcache.Measurement, total),
		have:      make([]bool, total),
		remaining: total,
		done:      make(chan struct{}),
	}
	if c.cache != nil {
		if j.keys, err = experiments.CellKeys(cfg, grid); err != nil {
			return nil, err
		}
		for idx, key := range j.keys {
			if m, ok := c.cache.Get(key); ok {
				j.got[idx], j.have[idx] = m, true
				j.remaining--
			}
		}
	}
	for i, m := range plan.Shards { // the empty shard of a 0-cell grid is covered too
		if !slices.ContainsFunc(m.Cells(total), func(idx int) bool { return !j.have[idx] }) {
			j.shards[i].status = shardDone
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if prior, ok := c.jobs[j.ID]; ok { // a concurrent submission of the same sweep won
		return prior, nil
	}
	if c.journal != nil {
		// WAL discipline: the submission is durable before it is
		// acknowledged. A journal failure refuses the submission with no
		// state change — the client retries once the journal is writable.
		spec := spec
		if err := c.journal.Append(journalEntry{Type: "submit", Spec: &spec, Shards: shards}); err != nil {
			return nil, err
		}
	}
	c.jobs[j.ID] = j
	c.order = append(c.order, j)
	if j.remaining == 0 {
		c.finalizeLocked(j)
	}
	return j, nil
}

// Job returns a submitted job by ID.
func (c *Coordinator) Job(id string) (*Job, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	return j, ok
}

// Jobs snapshots every submitted job's status, in submission order.
func (c *Coordinator) Jobs() []JobStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]JobStatus, 0, len(c.order))
	for _, j := range c.order {
		out = append(out, c.statusLocked(j))
	}
	return out
}

// Status snapshots one job.
func (c *Coordinator) Status(id string) (JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return c.statusLocked(j), true
}

func (c *Coordinator) statusLocked(j *Job) JobStatus {
	st := JobStatus{
		ID:         j.ID,
		TotalCells: j.grid.Total(),
		CellsDone:  j.grid.Total() - j.remaining,
		ShardCount: len(j.shards),
	}
	for _, s := range j.shards {
		if s.status == shardDone {
			st.ShardsDone++
		}
	}
	select {
	case <-j.done:
		st.Done = true
		if j.err != nil {
			st.Err = j.err.Error()
		}
	default:
	}
	return st
}

// Lease hands out the next leasable shard across all unfinished jobs, in
// submission order, or reports none available (everything done, or every
// pending shard currently leased). A shard whose lease has reached its
// deadline is leasable again, so a dead worker's shard becomes available
// the moment its deadline passes. workerID is advisory: the coordinator
// neither records nor checks it.
func (c *Coordinator) Lease(workerID string) (*Lease, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	if c.draining {
		return nil, false
	}
	for _, j := range c.order {
		select {
		case <-j.done:
			continue
		default:
		}
		for i := range j.shards {
			if !j.shards[i].leasable(now) {
				continue
			}
			c.seq++
			st := shardState{
				status:   shardLeased,
				leaseID:  fmt.Sprintf("lease-%d", c.seq),
				deadline: now.Add(c.ttl),
			}
			c.leases[st.leaseID] = leaseSlot{job: j, shard: i}
			j.shards[i] = st
			return &Lease{
				ID:       st.leaseID,
				JobID:    j.ID,
				Spec:     j.Spec,
				Manifest: j.plan.Shards[i],
				TTL:      c.ttl,
				Deadline: st.deadline,
			}, true
		}
	}
	return nil, false
}

// Heartbeat renews a lease, returning its new deadline. A lease at or past
// its deadline, or whose shard has since completed or been re-leased, gets
// ErrLeaseExpired: renewal cannot resurrect it. An ID the coordinator never
// issued, or issued for a job that has since finalized, gets
// ErrUnknownLease.
func (c *Coordinator) Heartbeat(leaseID string) (time.Time, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	slot, ok := c.leases[leaseID]
	if !ok {
		return time.Time{}, ErrUnknownLease
	}
	st := &slot.job.shards[slot.shard]
	if st.status != shardLeased || st.leaseID != leaseID || st.leasable(now) {
		return time.Time{}, ErrLeaseExpired
	}
	st.deadline = now.Add(c.ttl)
	return st.deadline, nil
}

// Complete accepts a shard's completion record and merges its measurements
// incrementally. The record is self-describing, so acceptance is decided
// by its content, not by who delivers it:
//
//   - A record whose ConfigHash matches no job is rejected with a typed
//     *ForeignRecordError and merges nothing.
//   - A record whose manifest names no shard, or whose results are not
//     the cells its (index, count) derives over the job's grid, is
//     rejected as malformed (ErrBadRecord).
//   - A valid record is merged idempotently — cells already covered are
//     left untouched, so duplicate deliveries and overlapping stale
//     records cannot change the result. Only newly merged cells are
//     written to the cache, under the keys Submit derived from the grid,
//     and before the journal marks the completion. leaseID is advisory:
//     a record delivered under an expired lease (the worker outlived its
//     lease mid-upload) is still accepted, because the measurements are
//     deterministic — identical to what the re-leased worker would
//     produce — and discarding finished work would only waste it.
//
// A record cut under the job's own shard count completes that planned
// shard, so any lease still on it (the deliverer's, or a re-leased
// worker's) reads as expired at its holder's next heartbeat; one cut
// under another count (a client that planned its own partition) merges
// cell-wise only. The returned duplicate flag reports whether the shard
// had already completed. When the last cell lands the job finalizes: the
// merged grid is normalized once (shard.Assemble) and Done closes.
func (c *Coordinator) Complete(leaseID string, rec *shard.Record) (duplicate bool, err error) {
	if rec == nil {
		return false, fmt.Errorf("%w: no record", ErrBadRecord)
	}
	m := rec.Manifest
	c.mu.Lock()
	j, ok := c.jobs[m.ConfigHash]
	jobs := len(c.jobs)
	c.mu.Unlock()
	if !ok {
		return false, &ForeignRecordError{ConfigHash: m.ConfigHash, Jobs: jobs}
	}
	// The grid is immutable once submitted, so the record is checked
	// against it outside the mutex.
	if err := m.Validate(); err != nil {
		return false, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	cells := m.Cells(j.grid.Total())
	if len(rec.Results) != len(cells) {
		return false, fmt.Errorf("%w: %d results for shard %d/%d's %d cells", ErrBadRecord, len(rec.Results), m.Index, m.Count, len(cells))
	}
	for i, cr := range rec.Results {
		if cr.Index != cells[i] {
			return false, fmt.Errorf("%w: result %d holds cell %d, shard %d/%d assigns %d", ErrBadRecord, i, cr.Index, m.Index, m.Count, cells[i])
		}
	}

	// Store the cells this delivery brings before the journal marks it,
	// outside the mutex: each Put is a disk write with two fsyncs. A
	// concurrent delivery of the same cells may store them too, which is
	// harmless — the key and the measurement are the same. A failed Put
	// is only logged by the store (DESIGN §12): after a crash that cell
	// is leased and computed again.
	if c.cache != nil {
		c.mu.Lock()
		fresh := slices.DeleteFunc(slices.Clone(rec.Results), func(cr shard.CellResult) bool { return j.have[cr.Index] })
		c.mu.Unlock()
		for _, cr := range fresh {
			c.cache.Put(j.keys[cr.Index], cr.Measurement)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	shardIdx := -1
	if m.Count == len(j.shards) {
		shardIdx = m.Index
	}
	duplicate = shardIdx >= 0 && j.shards[shardIdx].status == shardDone

	// Mark the completion in the journal, and only then merge: the
	// marker's fsync is the acknowledgement. Only a delivery that changes
	// state (new cells, or a planned shard newly done) is marked, so
	// re-deliveries cannot grow the journal. A finalized job has every
	// cell, so nothing is new to it.
	newCells := slices.ContainsFunc(rec.Results, func(cr shard.CellResult) bool { return !j.have[cr.Index] })
	if c.journal != nil && (newCells || (shardIdx >= 0 && !duplicate)) {
		marker := journalEntry{Type: "complete", Job: j.ID, Shard: &m.Index}
		if err := c.journal.Append(marker); err != nil {
			return false, err
		}
	}
	if newCells {
		for _, cr := range rec.Results {
			if !j.have[cr.Index] {
				j.got[cr.Index] = cr.Measurement
				j.have[cr.Index] = true
				j.remaining--
			}
		}
	}
	if shardIdx >= 0 {
		j.shards[shardIdx] = shardState{status: shardDone}
	}
	if newCells && j.remaining == 0 {
		c.finalizeLocked(j)
	}
	return duplicate, nil
}

// finalizeLocked assembles and normalizes the merged grid and closes done.
// Every lease ID issued for the job is dropped, live or dead, so a
// long-lived daemon's lease index stays proportional to its *active* jobs
// and a worker still on a finished job's shard learns it is unknown. The
// caller holds c.mu.
func (c *Coordinator) finalizeLocked(j *Job) {
	j.result, j.err = shard.Assemble(j.grid, j.Spec.Variants, j.got)
	for id, slot := range c.leases {
		if slot.job == j {
			delete(c.leases, id)
		}
	}
	close(j.done)
}
