package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownOnlyIsRejected: a mistyped -only name exits 2 and lists the
// valid names instead of running nothing and exiting 0.
func TestUnknownOnlyIsRejected(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-only", "fig99", "-progress=false")
	cmd.Env = append(os.Environ(), childEnv+"=repro")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("repro -only fig99: %v, want exit status 2\n%s", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("repro -only fig99 printed to stdout:\n%s", stdout.String())
	}
	msg := stderr.String()
	for _, name := range append([]string{`"fig99"`}, experimentNames...) {
		if !strings.Contains(msg, name) {
			t.Errorf("stderr does not mention %s:\n%s", name, msg)
		}
	}
}

// TestBadFlagValuesAreRejected: a flag value no run can use exits 2 with a
// message naming the flag, before any experiment prints or a coordinator
// listens.
func TestBadFlagValuesAreRejected(t *testing.T) {
	stateDir := filepath.Join(t.TempDir(), "state")
	cases := [][]string{
		{"-only", "fig5", "-samples", "0"},
		{"-only", "fig5", "-samples", "-5"},
		{"-only", "fig14", "-serve", "127.0.0.1:0", "-serve-shards", "0"},
		{"-only", "table1", "-lease-ttl", "-1s"},
		{"-only", "table1", "-temps", "abc"},
		{"-only", "table1", "-temps", "NaN"},
		{"-only", "table1", "-device", "xyz"},
		{"-only", "table1", "-temps", "25,25"},
		{"-only", "table1", "-device", "tlc,tlc"},
		{"-quick", "-only", "fig14", "-state-dir", stateDir},
		{"-only", "fig14", "-worker", "127.0.0.1:1", "-state-dir", stateDir},
	}
	for _, args := range cases {
		cmd := exec.Command(os.Args[0], append(args, "-progress=false")...)
		cmd.Env = append(os.Environ(), childEnv+"=repro")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("repro %s: %v, want exit status 2\n%s", strings.Join(args, " "), err, stderr.String())
			continue
		}
		if stdout.Len() != 0 {
			t.Errorf("repro %s printed to stdout:\n%s", strings.Join(args, " "), stdout.String())
		}
		if flagName := args[len(args)-2]; !strings.Contains(stderr.String(), flagName) {
			t.Errorf("repro %s: stderr does not name %s:\n%s", strings.Join(args, " "), flagName, stderr.String())
		}
	}
	if _, err := os.Stat(stateDir); !os.IsNotExist(err) {
		t.Errorf("a rejected -state-dir was created (stat: %v)", err)
	}
}

// TestCharacterizationPanels: fig8, fig9 and fig10 render every panel of
// the paper's figures, not only the conditions the paper-vs-measured rows
// quote.
func TestCharacterizationPanels(t *testing.T) {
	var titles []string
	for _, c := range []string{"(0, 0mo)", "(1K, 0mo)", "(2K, 0mo)", "(0, 12mo)", "(1K, 12mo)", "(2K, 12mo)"} {
		titles = append(titles, "  (a) tPRE sweep at "+c+", 85°C\n")
	}
	titles = append(titles,
		"  (b) tEVAL sweep at (0, 0mo), 85°C\n",
		"  (b) tEVAL sweep at (2K, 12mo), 85°C\n",
		"  (c) tDISCH sweep at (2K, 12mo), 85°C\n")
	for _, c := range []string{"(1K, 0mo)", "(2K, 0mo)", "(0, 12mo)", "(1K, 12mo)", "(2K, 12mo)"} {
		titles = append(titles, "  combined sweep at "+c+", 85°C\n")
	}
	for _, c := range []string{"(2K, 0mo)", "(2K, 12mo)"} {
		titles = append(titles, "  tPRE at "+c+", 55°C and 30°C")
	}
	var out strings.Builder
	for _, fig := range []string{"fig8", "fig9", "fig10"} {
		cmd := exec.Command(os.Args[0], "-only", fig, "-samples", "200", "-progress=false")
		cmd.Env = append(os.Environ(), childEnv+"=repro")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("repro -only %s: %v\n%s", fig, err, stderr.String())
		}
		out.Write(stdout.Bytes())
	}
	for _, title := range titles {
		if n := strings.Count(out.String(), title); n != 1 {
			t.Errorf("panel %q appears %d times, want once", strings.TrimSpace(title), n)
		}
	}
}

// TestExtGolden: -only ext, the one run that sets the §8 extension knobs
// (reduced regular reads, PSO, the drift predictor), reproduces
// testdata/golden_ext.txt byte for byte.
func TestExtGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_ext.txt"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-only", "ext", "-progress=false")
	cmd.Env = append(os.Environ(), childEnv+"=repro")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("repro -only ext: %v\n%s", err, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("repro -only ext differs from testdata/golden_ext.txt:\ngot:\n%s\nwant:\n%s", stdout.Bytes(), want)
	}
}
