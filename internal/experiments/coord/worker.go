package coord

import (
	"context"
	"errors"
	"time"

	"readretry/internal/experiments/cellcache"
	"readretry/internal/experiments/shard"
)

const (
	// heartbeatMisses is how many *consecutive* failed heartbeats the
	// worker rides out before abandoning the shard. Only the
	// coordinator's word — ErrLeaseExpired / ErrUnknownLease — cancels
	// immediately: a transient transport failure is not evidence the
	// lease is lost (the coordinator may be mid-restart), and cancelling
	// a healthy run over one dropped packet throws away real simulation
	// time. The tolerance is bounded by the lease itself: once the TTL
	// passes un-renewed the coordinator re-leases the shard and the next
	// successful heartbeat comes back ErrLeaseExpired anyway.
	heartbeatMisses = 3
	// goneAfter is how many consecutive transport-failed polls (after
	// first contact) the worker tolerates before concluding the
	// coordinator served its sweeps and exited. Each failed poll already
	// spans the client's full retry budget, so the streak rides out a
	// coordinator restart without masking a real exit for long.
	goneAfter = 3
)

// Worker pulls shards from a coordinator and runs them. The loop is
// deliberately stateless between shards: each lease carries a
// self-contained Spec + Manifest, so a worker needs nothing but the
// coordinator's address — no shared filesystem, no flag agreement.
// shard.Run re-derives the config hash before simulating, so a
// coordinator/worker engine mismatch still fails loudly, never merges
// garbage.
type Worker struct {
	// Client speaks to the coordinator. Required.
	Client *Client
	// ID identifies this worker in leases; defaults to host-pid.
	ID string
	// Cache, when non-nil, is this worker's local measurement tier
	// (typically a cellcache disk tier). A worker killed mid-shard and
	// restarted over the same cache re-simulates only the cells the crash
	// lost.
	Cache cellcache.Cache
	// Parallelism bounds concurrent cells within a shard; 0 means the
	// engine default (GOMAXPROCS).
	Parallelism int
	// Poll is how long to idle when the coordinator has no work;
	// defaults to 1s.
	Poll time.Duration
	// HeartbeatEvery overrides the heartbeat cadence; 0 selects a third
	// of the lease TTL (three chances before the lease dies).
	HeartbeatEvery time.Duration
	// OnCell, when non-nil, observes per-cell progress within a shard —
	// also the fault-injection hook the tests use to kill a worker
	// mid-shard.
	OnCell func(m shard.Manifest, done, total int)
	// Sleep waits between polls; nil uses a real timer. Tests inject a
	// fake to run the loop without wall-clock time.
	Sleep func(ctx context.Context, d time.Duration) bool
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...interface{})
}

func (w *Worker) logf(format string, args ...interface{}) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	if w.Sleep != nil {
		return w.Sleep(ctx, d)
	}
	return sleep(ctx, d)
}

// Run pulls and executes shards until ctx ends or the coordinator goes
// away. Before first contact, transport errors retry indefinitely (worker
// started before the coordinator finished binding); after first contact,
// only goneAfter *consecutive* transport-failed polls are read as
// "coordinator served its sweeps and exited" — the CI topology — so a
// coordinator restart (crash + Recover on the same address) looks like a
// brief streak that a surviving poll resets, not an exit. A lost lease
// (expiry raced a slow shard) is not fatal either: the shard has been
// re-leased to someone else, so the loop just pulls again.
func (w *Worker) Run(ctx context.Context) error {
	if w.Client == nil {
		return errors.New("coord: worker has no client")
	}
	id := w.ID
	if id == "" {
		id = workerID()
	}
	poll := w.Poll
	if poll <= 0 {
		poll = time.Second
	}
	contacted := false
	goneStreak := 0
	// gone classifies one transport failure after contact: tolerate it
	// (sleep, poll again) until the streak says the coordinator is truly
	// gone.
	gone := func(err error) bool {
		goneStreak++
		if goneStreak >= goneAfter {
			w.logf("worker %s: coordinator gone (%d consecutive failures, last: %v); done", id, goneStreak, err)
			return true
		}
		w.logf("worker %s: coordinator unreachable (%d/%d, %v); retrying", id, goneStreak, goneAfter, err)
		return false
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		l, ok, err := w.Client.Lease(ctx, id)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if isTransportError(err) {
				if contacted {
					if gone(err) {
						return nil
					}
				} else {
					w.logf("worker %s: waiting for coordinator: %v", id, err)
				}
				if !w.sleep(ctx, poll) {
					return ctx.Err()
				}
				continue
			}
			return err
		}
		contacted = true
		goneStreak = 0
		if !ok {
			if !w.sleep(ctx, poll) {
				return ctx.Err()
			}
			continue
		}
		if err := w.runLease(ctx, l); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, ErrLeaseExpired) || errors.Is(err, ErrUnknownLease) {
				// The coordinator gave this shard away (or its job is
				// already done); its copy of the work is authoritative,
				// ours is abandoned.
				w.logf("worker %s: lost lease %s on shard %d/%d: %v", id, l.ID, l.Manifest.Index, l.Manifest.Count, err)
				continue
			}
			if isTransportError(err) {
				// A delivery or heartbeat that could not reach the
				// coordinator counts toward the same streak: the shard's
				// work is safe (cache + re-lease), so keep polling.
				if gone(err) {
					return nil
				}
				if !w.sleep(ctx, poll) {
					return ctx.Err()
				}
				continue
			}
			return err
		}
		goneStreak = 0
	}
}

// runLease executes one leased shard: heartbeats in the background at a
// third of the TTL, runs the manifest through shard.Run over the worker's
// cache, and delivers the completion record. A heartbeat *rejection* —
// the coordinator saying the lease is expired or unknown — cancels the
// in-flight run: there is no point finishing a shard the coordinator has
// re-leased (and the duplicate would be harmlessly idempotent anyway, the
// cancel just saves the simulation time). A heartbeat that merely fails
// to reach the coordinator is different: it proves nothing about the
// lease, so the worker keeps simulating through heartbeatMisses
// consecutive misses (each already carrying the client's retry/backoff
// budget) before treating the coordinator as unreachable.
func (w *Worker) runLease(ctx context.Context, l *Lease) error {
	cfg := l.Spec.Config()
	cfg.Parallelism = w.Parallelism
	cfg.Cache = w.Cache
	if w.OnCell != nil {
		m := l.Manifest
		cfg.Progress = func(done, total int) { w.OnCell(m, done, total) }
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var hbErr error
	hbDone := make(chan struct{})
	interval := w.HeartbeatEvery
	if interval <= 0 {
		interval = l.TTL / 3
	}
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		defer close(hbDone)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		misses := 0
		for {
			select {
			case <-runCtx.Done():
				return
			case <-ticker.C:
			}
			_, err := w.Client.Heartbeat(runCtx, l.ID)
			if err == nil {
				misses = 0
				continue
			}
			if runCtx.Err() != nil {
				return
			}
			if errors.Is(err, ErrLeaseExpired) || errors.Is(err, ErrUnknownLease) {
				// The coordinator's word: the lease is gone, stop now.
				hbErr = err
				cancel()
				return
			}
			misses++
			if misses >= heartbeatMisses {
				hbErr = err
				cancel()
				return
			}
			w.logf("worker: heartbeat for lease %s failed (%d/%d, %v); continuing shard", l.ID, misses, heartbeatMisses, err)
		}
	}()

	w.logf("worker: running shard %d/%d (lease %s)", l.Manifest.Index, l.Manifest.Count, l.ID)
	rec, runErr := shard.Run(runCtx, cfg, l.Spec.Variants, l.Manifest, "")
	cancel()
	<-hbDone
	if hbErr != nil {
		// The heartbeat failure is the root cause; the run error is just
		// its cancellation shadow.
		return hbErr
	}
	if runErr != nil {
		return runErr
	}
	if _, err := w.Client.Complete(ctx, l.ID, rec); err != nil {
		return err
	}
	return nil
}

// sleep waits d or until ctx ends, reporting whether the full wait
// elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// RunWorker is the one-call worker mode (cmd/repro's -worker): pull
// shards from the coordinator at addr over the given cache until it
// drains.
func RunWorker(ctx context.Context, addr string, cache cellcache.Cache, parallelism int, logf func(string, ...interface{})) error {
	w := &Worker{
		Client:      NewClient(addr),
		Cache:       cache,
		Parallelism: parallelism,
		Logf:        logf,
	}
	return w.Run(ctx)
}
