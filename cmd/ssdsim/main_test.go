package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// childEnv makes this test binary run the command itself, so a test can
// check the exit status and output of a real invocation.
const childEnv = "SSDSIM_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsAreRejected: an invalid flag value exits 2 with a message
// naming the valid values, and prints nothing to stdout.
func TestBadFlagsAreRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string // each must appear in stderr
	}{
		{[]string{"-requests", "-3"}, []string{"-requests", "at least 0"}},
		{[]string{"-iops", "-5"}, []string{"-iops", "at least 0", "workload default"}},
		{[]string{"-pso", "-history", "-requests", "10"}, []string{"UsePSO", "UseRetryHistory", "at most one"}},
		{[]string{"-temp", "200"}, []string{"TempC", "range"}},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("ssdsim %v: %v, want exit status 2\n%s", tc.args, err, stderr.String())
			continue
		}
		if stdout.Len() != 0 {
			t.Errorf("ssdsim %v printed to stdout:\n%s", tc.args, stdout.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(stderr.String(), w) {
				t.Errorf("ssdsim %v: stderr does not mention %s:\n%s", tc.args, w, stderr.String())
			}
		}
	}
}

// TestHeaderKeepsFractionalPEC: the configuration line prints the P/E count
// in thousands without truncating it, as the sweep's condition labels do.
func TestHeaderKeepsFractionalPEC(t *testing.T) {
	for pec, want := range map[string]string{
		"500":  "(0.5K P/E, ",
		"1500": "(1.5K P/E, ",
		"2000": "(2K P/E, ",
	} {
		cmd := exec.Command(os.Args[0], "-pec", pec, "-requests", "0")
		cmd.Env = append(os.Environ(), childEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("ssdsim -pec %s: %v\n%s", pec, err, stderr.String())
		}
		header, _, _ := strings.Cut(stdout.String(), "\n")
		if !strings.Contains(header, want) {
			t.Errorf("ssdsim -pec %s: header %q does not contain %q", pec, header, want)
		}
	}
}
