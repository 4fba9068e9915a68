package coord

// Worker-hardening suite: transient transport failures (heartbeats and
// polls that never reach the coordinator) must not make a worker abandon
// work, while the coordinator's own word (expired/unknown lease) still
// cancels immediately. Faults are scripted, sleeps injected — no
// wall-clock waits in the tests themselves.

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"readretry/internal/experiments"
	"readretry/internal/experiments/cellcache"
	"readretry/internal/experiments/shard"
)

// logCapture collects Worker.Logf lines for assertions.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...interface{}) {
	lc.mu.Lock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
	lc.mu.Unlock()
}

func (lc *logCapture) has(sub string) bool {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, l := range lc.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// TestWorkerSurvivesSingleDroppedHeartbeat is the regression test for the
// old behavior (any heartbeat failure → cancel the shard): exactly one
// heartbeat is dropped on the floor mid-shard, and the worker must finish
// the shard and the sweep without ever treating the lease as lost. The
// shard's first cell is held until the heartbeat after the dropped one has
// returned, so the shard cannot finish before the drop is ridden out.
func TestWorkerSurvivesSingleDroppedHeartbeat(t *testing.T) {
	cfg := testConfig(7)
	variants := testVariants()
	c := New(Options{Clock: newFakeClock()})
	client, ft, _ := newFaultClient(t, c)
	client.Retry.Attempts = 1 // one drop = one failed heartbeat, no hidden retry
	receipt, err := client.Submit(context.Background(), SpecOf(cfg, variants), 1)
	if err != nil {
		t.Fatal(err)
	}
	ft.Script("/heartbeat", FaultDrop)
	recovered := make(chan struct{})
	var heartbeats int
	client.HTTP.Transport = roundTripFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := ft.RoundTrip(req)
		if req.URL.Path == "/heartbeat" {
			// Heartbeats are sequential: one goroutine sends them.
			if heartbeats++; heartbeats == 2 {
				close(recovered)
			}
		}
		return resp, err
	})

	lc := &logCapture{}
	w := &Worker{
		Client: client, ID: "w", Cache: cellcache.Memory(), Parallelism: 1,
		Poll: time.Millisecond, HeartbeatEvery: time.Millisecond, Logf: lc.logf,
		OnCell: func(_ shard.Manifest, done, _ int) {
			if done == 1 {
				<-recovered
			}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	res, err := client.Result(context.Background(), receipt.JobID)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done

	if !lc.has("continuing shard") {
		t.Fatalf("dropped heartbeat never observed as tolerated; log: %v", lc.lines)
	}
	if lc.has("lost lease") {
		t.Fatalf("one dropped heartbeat abandoned the shard; log: %v", lc.lines)
	}
	if got := ft.Attempts("/heartbeat"); got < 2 {
		t.Fatalf("heartbeat attempted %d times, want the dropped one plus a recovery", got)
	}
	unsharded, err := experiments.RunSweep(context.Background(), cfg, variants)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "dropped-heartbeat", unsharded, res)
}

// TestWorkerAbandonsShardAfterHeartbeatMissBudget: when every heartbeat
// fails at the transport, the worker gives the coordinator heartbeatMisses
// chances and then cancels the in-flight shard with the transport error as
// the cause. The shard's first cell is held until the heartbeat loop has
// given up (the heartbeats' context is the run's, so its cancellation is
// that signal); however fast the simulator, the shard cannot finish first.
func TestWorkerAbandonsShardAfterHeartbeatMissBudget(t *testing.T) {
	cfg := testConfig(7)
	variants := testVariants()
	c := New(Options{Clock: newFakeClock()})
	client, ft, _ := newFaultClient(t, c)
	client.Retry.Attempts = 1
	client.RequestTimeout = 0 // a heartbeat request's context is then the run's own
	if _, err := client.Submit(context.Background(), SpecOf(cfg, variants), 1); err != nil {
		t.Fatal(err)
	}
	ft.Script("/heartbeat",
		FaultDrop, FaultDrop, FaultDrop, FaultDrop, FaultDrop, FaultDrop)
	runCtx := make(chan context.Context, 1)
	client.HTTP.Transport = roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.URL.Path == "/heartbeat" {
			select {
			case runCtx <- req.Context():
			default:
			}
		}
		return ft.RoundTrip(req)
	})

	w := &Worker{
		Client: client, ID: "w", Cache: cellcache.Memory(), Parallelism: 1,
		HeartbeatEvery: time.Millisecond,
		OnCell: func(_ shard.Manifest, done, _ int) {
			if done == 1 {
				<-(<-runCtx).Done()
			}
		},
	}
	l, ok, err := client.Lease(context.Background(), "w")
	if !ok || err != nil {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	err = w.runLease(context.Background(), l)
	if err == nil || !isTransportError(err) {
		t.Fatalf("runLease with dead heartbeats returned %v, want the transport error", err)
	}
	if got := ft.Attempts("/heartbeat"); got != heartbeatMisses {
		t.Fatalf("heartbeat attempted %d times before abandoning, want heartbeatMisses=%d", got, heartbeatMisses)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestWorkerGoneStreak: after first contact, consecutive transport-failed
// polls below goneAfter are ridden out (a restart blip), and a successful
// poll resets the streak; only a full streak reads as "coordinator gone".
func TestWorkerGoneStreak(t *testing.T) {
	t.Run("blip-tolerated", func(t *testing.T) {
		c := New(Options{Clock: newFakeClock()}) // no jobs: polls answer 204
		client, ft, _ := newFaultClient(t, c)
		client.Retry.Attempts = 1
		ft.Script("/lease", FaultPass, FaultDrop, FaultDrop) // contact, then a 2-poll blip

		lc := &logCapture{}
		sleeps := 0
		w := &Worker{
			Client: client, ID: "w", Poll: time.Millisecond, Logf: lc.logf,
			Sleep: func(ctx context.Context, d time.Duration) bool {
				sleeps++
				return sleeps < 8 // end the test loop without wall-clock time
			},
		}
		if err := w.Run(context.Background()); err != nil {
			t.Fatalf("worker run: %v", err)
		}
		if lc.has("coordinator gone") {
			t.Fatalf("a 2-poll blip below goneAfter=3 was read as gone; log: %v", lc.lines)
		}
		if !lc.has("retrying") {
			t.Fatalf("blip never observed; log: %v", lc.lines)
		}
		if got := ft.Attempts("/lease"); got < 5 {
			t.Fatalf("worker stopped polling after %d attempts — the blip killed it", got)
		}
	})
	t.Run("streak-is-gone", func(t *testing.T) {
		c := New(Options{Clock: newFakeClock()})
		client, ft, _ := newFaultClient(t, c)
		client.Retry.Attempts = 1
		ft.Script("/lease", FaultPass, FaultDrop, FaultDrop, FaultDrop)

		lc := &logCapture{}
		w := &Worker{
			Client: client, ID: "w", Poll: time.Millisecond, Logf: lc.logf,
			Sleep: func(ctx context.Context, d time.Duration) bool { return true },
		}
		if err := w.Run(context.Background()); err != nil {
			t.Fatalf("worker run: %v", err)
		}
		if !lc.has("coordinator gone") {
			t.Fatalf("3 consecutive failures with goneAfter=3 not read as gone; log: %v", lc.lines)
		}
		if got := ft.Attempts("/lease"); got != 4 {
			t.Fatalf("worker polled %d times, want contact + exactly the 3-failure streak", got)
		}
	})
}
