package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGolden: the example's stdout reproduces testdata/golden.txt byte for
// byte, so a facade change that alters what it prints shows up here.
func TestGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("stdout differs from testdata/golden.txt:\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
