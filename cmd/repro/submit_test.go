package main

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"readretry/internal/experiments"
	"readretry/internal/experiments/cellcache"
	"readretry/internal/experiments/coord"
)

// TestSubmitModeMatchesSingleProcess drives the -submit client end to end:
// an in-process coordinator behind an HTTP test server, one worker
// draining it, and runSubmitMode on the tiny grid. The result it renders
// must equal the single-process sweep of the same grid.
func TestSubmitModeMatchesSingleProcess(t *testing.T) {
	var got *experiments.Result
	cfg, figs := tinySweep(func(res *experiments.Result) { got = res })
	want, err := experiments.RunSweep(context.Background(), cfg, figs[0].variants)
	if err != nil {
		t.Fatal(err)
	}

	c := coord.New(coord.Options{})
	defer c.Close()
	srv := httptest.NewServer(coord.NewServer(c).Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan error, 1)
	go func() { workerDone <- coord.RunWorker(ctx, srv.URL, cellcache.Memory(), 1, nil) }()

	oldAddr := *submitAddr
	*submitAddr = srv.URL
	defer func() { *submitAddr = oldAddr }()
	done := make(chan error, 1)
	go func() { done <- runSubmitMode(cfg, figs) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("submit run did not return")
	}

	cancel()
	if err := <-workerDone; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("worker: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("-submit rendered a different result than the single-process sweep")
	}
}
