package analysis

import (
	"path/filepath"
	"testing"
)

// TestLoadRealPackage smoke-tests the go list -export loader against the
// module itself: a real package with module-internal imports must parse,
// type-check, and expose type info the analyzers rely on.
func TestLoadRealPackage(t *testing.T) {
	pkgs, err := Load(filepath.Join("..", ".."), "./internal/rng")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.ImportPath != "readretry/internal/rng" {
		t.Errorf("ImportPath = %q", pkg.ImportPath)
	}
	if pkg.Types == nil || pkg.Types.Scope().Lookup("Source") == nil {
		t.Error("type information missing: rng.Source not found in package scope")
	}
	if len(pkg.Info.Uses) == 0 {
		t.Error("Uses map empty: analyzers cannot resolve selectors")
	}
	for _, f := range pkg.Files {
		name := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
		if len(name) > 8 && name[len(name)-8:] == "_test.go" {
			t.Errorf("test file %s loaded: the suite lints non-test sources only", name)
		}
	}
}

// TestRunSuiteOverOwnPackage loads this package and runs every analyzer
// over it without an analyzer error (findings are fine; this guards the
// plumbing, not cleanliness).
func TestRunSuiteOverOwnPackage(t *testing.T) {
	pkgs, err := Load(filepath.Join("..", ".."), "./internal/analysis")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, a := range All() {
			if _, err := pkg.Run(a); err != nil {
				t.Errorf("%s on %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
	}
}

func TestLoadDirRejectsEmpty(t *testing.T) {
	if _, err := LoadDir(t.TempDir(), "empty"); err == nil {
		t.Error("LoadDir on an empty directory must fail")
	}
}
