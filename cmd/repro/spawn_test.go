package main

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"readretry/internal/experiments"
	"readretry/internal/experiments/cellcache"
)

// childEnv tells a child of this test binary what to be. -spawn-shards
// forks os.Executable(), which under `go test` is this binary, so TestMain
// re-executes it as the real repro command ("repro") or as a worker that
// dies at once ("exit") — the helper-process pattern.
const childEnv = "REPRO_TEST_CHILD"

func TestMain(m *testing.M) {
	switch os.Getenv(childEnv) {
	case "repro":
		main()
		os.Exit(0)
	case "exit":
		os.Exit(3)
	}
	os.Exit(m.Run())
}

// tinySweep is a four-cell grid cheap enough to simulate in a test; render
// receives the merged result.
func tinySweep(render func(*experiments.Result)) (experiments.Config, []figureSweep) {
	cfg := experiments.QuickConfig()
	cfg.Workloads = []string{"stg_0", "YCSB-C"}
	cfg.Conditions = []experiments.Condition{{PEC: 2000, Months: 6}}
	cfg.Requests = 300
	vs := experiments.Figure14Variants()
	return cfg, []figureSweep{{"tiny", []experiments.Variant{vs[0], vs[3]}, render}}
}

// spawnRun runs the -spawn-shards path with n children, failing the test
// instead of hanging if it never returns.
func spawnRun(t *testing.T, cfg experiments.Config, figs []figureSweep, n int) error {
	t.Helper()
	old := *progress
	*progress = false
	defer func() { *progress = old }()
	done := make(chan error, 1)
	go func() { done <- runServeMode(cfg, figs, "127.0.0.1:0", n) }()
	select {
	case err := <-done:
		return err
	case <-time.After(2 * time.Minute):
		t.Fatal("spawn run did not return")
		return nil
	}
}

// liveChildren lists the processes, running or unreaped, whose parent is
// this test process.
func liveChildren(t *testing.T) []int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Skipf("cannot enumerate processes: %v", err)
	}
	self := strconv.Itoa(os.Getpid())
	var pids []int
	for _, ent := range entries {
		pid, err := strconv.Atoi(ent.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", ent.Name(), "stat"))
		if err != nil {
			continue // exited while scanning
		}
		// "pid (comm) state ppid …"; comm may hold spaces and parentheses.
		fields := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
		if len(fields) > 1 && fields[1] == self {
			pids = append(pids, pid)
		}
	}
	return pids
}

// TestSpawnFailsWhenEveryWorkerExits: if every child exits before the
// sweep completes, the run fails with an error naming a child instead of
// waiting forever for work nobody will do.
func TestSpawnFailsWhenEveryWorkerExits(t *testing.T) {
	t.Setenv(childEnv, "exit")
	cfg, figs := tinySweep(func(*experiments.Result) { t.Error("sweep completed with no live worker") })
	err := spawnRun(t, cfg, figs, 2)
	if err == nil {
		t.Fatal("spawn run succeeded although every worker exited")
	}
	if !strings.Contains(err.Error(), "worker ") || !strings.Contains(err.Error(), "exit status 3") {
		t.Fatalf("error does not name the exited worker: %v", err)
	}
	if pids := liveChildren(t); len(pids) > 0 {
		t.Fatalf("children %v still present after the run", pids)
	}
}

// TestSpawnLeavesNoWorkers: real child workers simulate the sweep over a
// shared disk cache, then a re-run finds it warm and finishes at Submit.
// Both runs merge exactly the single-process result, and neither leaves a
// child process behind — the workers would otherwise keep polling a
// coordinator that has gone.
func TestSpawnLeavesNoWorkers(t *testing.T) {
	t.Setenv(childEnv, "repro")
	old := *cacheDir
	*cacheDir = t.TempDir()
	defer func() { *cacheDir = old }()

	var got *experiments.Result
	cfg, figs := tinySweep(func(res *experiments.Result) { got = res })
	want, err := experiments.RunSweep(context.Background(), cfg, figs[0].variants)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []string{"cold", "warm"} {
		cache, err := cellcache.Disk(*cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = cache
		got = nil
		if err := spawnRun(t, cfg, figs, 2); err != nil {
			t.Fatalf("%s run: %v", run, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s run merged a different result than the single-process sweep", run)
		}
		if pids := liveChildren(t); len(pids) > 0 {
			t.Fatalf("%s run left children %v behind", run, pids)
		}
	}
}
