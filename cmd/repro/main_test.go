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
