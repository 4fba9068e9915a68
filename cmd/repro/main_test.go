package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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
	cases := [][]string{
		{"-only", "fig5", "-samples", "0"},
		{"-only", "fig5", "-samples", "-5"},
		{"-only", "fig14", "-serve", "127.0.0.1:0", "-serve-shards", "0"},
		{"-only", "table1", "-lease-ttl", "-1s"},
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
}
