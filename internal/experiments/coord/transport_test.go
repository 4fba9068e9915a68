package coord

// Transport-hardening suite: every test runs the real Client against a
// real Server through a FaultTransport with a scripted misbehavior, a
// fixed jitter, and a fake sleeper — fully deterministic, zero
// time.Sleep, clean under -race.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"readretry/internal/experiments"
	"readretry/internal/experiments/cellcache"
	"readretry/internal/experiments/shard"
)

// sleepRecorder is the fake sleeper: it records each requested backoff and
// returns immediately.
type sleepRecorder struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (s *sleepRecorder) sleep(ctx context.Context, d time.Duration) bool {
	s.mu.Lock()
	s.delays = append(s.delays, d)
	s.mu.Unlock()
	return ctx.Err() == nil
}

func (s *sleepRecorder) recorded() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.delays...)
}

// newFaultClient starts a server for c and returns a client routed through
// a fresh FaultTransport, with deterministic backoff (zero jitter → delay
// is exactly half the exponential step) and a recording fake sleeper.
func newFaultClient(t *testing.T, c *Coordinator) (*Client, *FaultTransport, *sleepRecorder) {
	t.Helper()
	srv := httptest.NewServer(NewServer(c).Handler())
	t.Cleanup(srv.Close)
	ft := NewFaultTransport(srv.Client().Transport)
	rec := &sleepRecorder{}
	client := NewClient(srv.URL)
	client.HTTP = &http.Client{Transport: ft}
	client.Retry.Jitter = func() float64 { return 0 }
	client.Sleep = rec.sleep
	return client, ft, rec
}

// TestClientRetriesTransportErrorsWithBackoff: two dropped connections,
// then success — the call succeeds transparently, with exponential
// backoff between the attempts.
func TestClientRetriesTransportErrorsWithBackoff(t *testing.T) {
	c := New(Options{Clock: newFakeClock()})
	client, ft, rec := newFaultClient(t, c)
	if _, err := c.Submit(SpecOf(testConfig(7), testVariants()), 2); err != nil {
		t.Fatal(err)
	}

	ft.Script("/lease", FaultDrop, FaultDrop)
	l, ok, err := client.Lease(context.Background(), "w")
	if err != nil || !ok || l == nil {
		t.Fatalf("lease through 2 drops: ok=%v err=%v", ok, err)
	}
	if got := ft.Attempts("/lease"); got != 3 {
		t.Fatalf("lease took %d attempts, want 3", got)
	}
	// Zero jitter: delays are exactly base/2 then base (the doubled step
	// halved), proving both the growth and the bound.
	base := client.Retry.BaseDelay
	want := []time.Duration{base / 2, base}
	got := rec.recorded()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("backoff schedule %v, want %v", got, want)
	}
}

// TestClientRetries503Burst: synthesized 5xx responses are retried like
// transport errors; the burst ends and the call succeeds.
func TestClientRetries503Burst(t *testing.T) {
	c := New(Options{Clock: newFakeClock()})
	client, ft, _ := newFaultClient(t, c)
	if _, err := c.Submit(SpecOf(testConfig(7), testVariants()), 2); err != nil {
		t.Fatal(err)
	}
	ft.Script("/lease", Fault503, Fault503)
	if _, ok, err := client.Lease(context.Background(), "w"); err != nil || !ok {
		t.Fatalf("lease through 503 burst: ok=%v err=%v", ok, err)
	}
	if got := ft.Attempts("/lease"); got != 3 {
		t.Fatalf("lease took %d attempts, want 3", got)
	}
}

// TestClientDelayAndDupFaultsHarmless: a delayed request passes through
// untouched, and a network-duplicated lease request — whose first
// (invisible) delivery wins the only shard, orphaning it — self-heals
// through lease expiry: the client polls empty, the orphan times out, and
// the re-lease finishes the sweep.
func TestClientDelayAndDupFaultsHarmless(t *testing.T) {
	cfg := testConfig(7)
	variants := testVariants()
	clk := newFakeClock()
	c := New(Options{Clock: clk})
	client, ft, _ := newFaultClient(t, c)
	delayed := 0
	ft.OnDelay = func(string) { delayed++ }
	ft.Script("/submit", FaultDelay)
	ft.Script("/lease", FaultDup)

	receipt, err := client.Submit(context.Background(), SpecOf(cfg, variants), 1)
	if err != nil {
		t.Fatal(err)
	}
	if delayed != 1 {
		t.Fatalf("delay fault fired %d times, want 1", delayed)
	}
	// The duplicate (delivered first) takes the only shard; the response
	// the client sees is the second delivery's honest 204.
	if _, ok, err := client.Lease(context.Background(), "w"); err != nil || ok {
		t.Fatalf("dup-eaten lease: ok=%v err=%v, want polite 204", ok, err)
	}
	// The orphaned grant expires like any abandoned lease; work resumes.
	clk.Advance(c.LeaseTTL())
	l, ok, err := client.Lease(context.Background(), "w")
	if err != nil || !ok {
		t.Fatalf("re-lease after orphan expiry: ok=%v err=%v", ok, err)
	}
	runCfg := cfg
	runCfg.Parallelism = 1
	rec, err := shard.Run(context.Background(), runCfg, variants, l.Manifest, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Complete(context.Background(), l.ID, rec); err != nil {
		t.Fatal(err)
	}
	st, err := client.Status(context.Background(), receipt.JobID)
	if err != nil || !st.Done {
		t.Fatalf("job after duplicated lease: done=%v err=%v", st.Done, err)
	}
}

// TestClientNeverRetriesTypedErrors: a lease rejection is the
// coordinator's answer, not a transport failure — exactly one attempt, and
// the typed error survives the retry layer.
func TestClientNeverRetriesTypedErrors(t *testing.T) {
	c := New(Options{Clock: newFakeClock()})
	client, ft, rec := newFaultClient(t, c)
	if _, err := client.Heartbeat(context.Background(), "no-such-lease"); !errors.Is(err, ErrUnknownLease) {
		t.Fatalf("heartbeat error %v, want ErrUnknownLease", err)
	}
	if got := ft.Attempts("/heartbeat"); got != 1 {
		t.Fatalf("typed 410 took %d attempts, want 1 (no retry)", got)
	}
	if len(rec.recorded()) != 0 {
		t.Fatalf("typed error slept %v", rec.recorded())
	}
}

// TestLostResponseRetryIsIdempotent is the at-least-once delivery case the
// protocol is designed around: the server merges a completion record, the
// response is lost, the client retries — and the retry lands as a
// duplicate, changing nothing. The sweep still finalizes identically.
func TestLostResponseRetryIsIdempotent(t *testing.T) {
	cfg := testConfig(7)
	variants := testVariants()
	c := New(Options{Clock: newFakeClock()})
	client, ft, _ := newFaultClient(t, c)
	receipt, err := client.Submit(context.Background(), SpecOf(cfg, variants), 1)
	if err != nil {
		t.Fatal(err)
	}
	l, ok, err := client.Lease(context.Background(), "w")
	if !ok || err != nil {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	runCfg := cfg
	runCfg.Parallelism = 1
	rec, err := shard.Run(context.Background(), runCfg, variants, l.Manifest, "")
	if err != nil {
		t.Fatal(err)
	}

	// First delivery reaches the server; its response is lost; the client
	// retries and the second delivery reports duplicate.
	ft.Script("/complete", FaultDropResponse)
	dup, err := client.Complete(context.Background(), l.ID, rec)
	if err != nil {
		t.Fatalf("complete through lost response: %v", err)
	}
	if !dup {
		t.Fatal("retried delivery not flagged duplicate — the first delivery was lost, not just its response")
	}
	if got := ft.Attempts("/complete"); got != 2 {
		t.Fatalf("complete took %d attempts, want 2", got)
	}
	st, err := client.Status(context.Background(), receipt.JobID)
	if err != nil || !st.Done {
		t.Fatalf("job after lost-response retry: done=%v err=%v", st.Done, err)
	}
}

// TestOversizedBodyRejected: a request body beyond the endpoint's cap
// comes back 413 without taking the server down.
func TestOversizedBodyRejected(t *testing.T) {
	c := New(Options{Clock: newFakeClock()})
	srv := httptest.NewServer(NewServer(c).Handler())
	defer srv.Close()

	huge := append([]byte(`{"worker_id":"`), bytes.Repeat([]byte("x"), maxSmallBody+1024)...)
	huge = append(huge, []byte(`"}`)...)
	resp, err := http.Post(srv.URL+"/lease", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized lease body = %d, want 413", resp.StatusCode)
	}
	// Server alive and serving.
	client := NewClient(srv.URL)
	if _, ok, err := client.Lease(context.Background(), "w"); err != nil || ok {
		t.Fatalf("lease after oversized request: ok=%v err=%v", ok, err)
	}
}

// TestJournalFailure503IsRetryableRefusal: when the journal cannot be
// written, mutations are refused with 503/ErrJournal — retried by the
// client, never half-applied by the coordinator.
func TestJournalFailure503IsRetryableRefusal(t *testing.T) {
	state := t.TempDir()
	c, _, err := Recover(state, Options{Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the journal: close its fd out from under the coordinator.
	c.mu.Lock()
	c.journal.f.Close()
	c.mu.Unlock()

	client, ft, _ := newFaultClient(t, c)
	_, err = client.Submit(context.Background(), SpecOf(testConfig(7), testVariants()), 2)
	if !errors.Is(err, ErrJournal) {
		t.Fatalf("submit with dead journal: %v, want ErrJournal", err)
	}
	if got := ft.Attempts("/submit"); got != client.Retry.Attempts {
		t.Fatalf("dead journal retried %d times, want %d (503 is retryable)", got, client.Retry.Attempts)
	}
	// WAL discipline: the refused submission left no trace.
	if jobs := c.Jobs(); len(jobs) != 0 {
		t.Fatalf("refused submission registered %d jobs, want 0", len(jobs))
	}
}

// TestDrainReleasesBlockedResultPolls: Drain must wake a /result long-poll
// with a retryable 503 instead of leaving the client hanging into
// http.Server.Shutdown's timeout.
func TestDrainReleasesBlockedResultPolls(t *testing.T) {
	c := New(Options{Clock: newFakeClock()})
	server := NewServer(c)
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	client.Retry.Attempts = 1 // observe the 503 itself, not a retry loop
	receipt, err := client.Submit(context.Background(), SpecOf(testConfig(7), testVariants()), 2)
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan error, 1)
	go func() {
		_, err := client.Result(context.Background(), receipt.JobID)
		got <- err
	}()
	// The poll has no way to finish (no workers); Drain must release it.
	server.Drain()
	select {
	case err := <-got:
		if err == nil || !strings.Contains(err.Error(), "draining") {
			t.Fatalf("drained long-poll returned %v, want draining error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not release the blocked /result poll")
	}
	if _, ok := c.Lease("w"); ok {
		t.Fatal("draining coordinator still leasing")
	}
}

// TestSubmitSweepSurvivesCoordinatorRestart is the tentpole end-to-end: a
// submitting client and a worker both ride out a coordinator that is
// killed (listener torn down, process state gone) and restarted at the
// same address from its state dir — the client's retries bridge the
// outage, recovery rebuilds the job, and the final result is identical.
func TestSubmitSweepSurvivesCoordinatorRestart(t *testing.T) {
	cfg := testConfig(7)
	variants := testVariants()
	state := t.TempDir()

	c1, _, err := Recover(state, Options{Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	// A real listener on a fixed port we can resurrect after the "crash"
	// (httptest picks a fresh port, so build the server by hand).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs1 := &http.Server{Handler: NewServer(c1).Handler()}
	go hs1.Serve(ln)

	client := NewClient(addr)
	client.Retry = RetryPolicy{Attempts: 50, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	receipt, err := client.Submit(context.Background(), SpecOf(cfg, variants), 2)
	if err != nil {
		t.Fatal(err)
	}

	// SIGKILL: listener closed, coordinator abandoned mid-job.
	hs1.Close()

	// Restart from the same state dir on the same address while a result
	// poll and a worker hammer away through retries.
	c2, stats, err := Recover(state, Options{Clock: newFakeClock()})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs != 1 {
		t.Fatalf("restart recovered %+v, want the submitted job", stats)
	}
	// A closed listener's port rebinds immediately (no TIME_WAIT for
	// listening sockets), so the restart can take the same address.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hs2 := &http.Server{Handler: NewServer(c2).Handler()}
	defer hs2.Close()
	go hs2.Serve(ln2)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Client: client, ID: "w", Cache: cellcache.Memory(), Parallelism: 1, Poll: time.Millisecond}
	go w.Run(ctx)

	res, err := client.Result(context.Background(), receipt.JobID)
	if err != nil {
		t.Fatal(err)
	}
	unsharded, err := experiments.RunSweep(context.Background(), cfg, variants)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "restart-bridge", unsharded, res)
}
