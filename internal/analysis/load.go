package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// Package is one loaded, type-checked package ready to analyze.
type Package struct {
	// ImportPath is the path the package was checked under.
	ImportPath string
	// Dir is the source directory.
	Dir string
	// Fset, Files, Types, Info are the parse and type-check products the
	// analyzers consume. Files holds non-test sources only: the suite
	// lints what ships, and tests legitimately use fake clocks, sleeps,
	// and throwaway randomness under their own conventions.
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` in dir over patterns and
// returns the decoded package stream. -export makes the go tool write
// compiler export data for every listed package into the build cache —
// the same artifacts go vet type-checks against — which is what lets the
// loader resolve imports without a network or a GOPATH of .a files.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list -json decode: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter type-checks against compiler export data located by the
// importPath → file map go list produced.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// Load enumerates patterns (e.g. "./...") relative to dir, parses and
// type-checks every matched package, and returns them in import-path
// order. Test files are excluded; see Package.Files.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	var targets []listedPackage
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, p := range targets {
		if len(p.GoFiles) == 0 {
			continue
		}
		pkg, err := checkFiles(fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// checkFiles parses the named source files in dir and type-checks them
// as one package under the given import path, resolving imports through
// imp. It is the core Load and LoadDir share.
func checkFiles(fset *token.FileSet, imp types.Importer, path, dir string, names []string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", full, err)
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{
		ImportPath: path,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// LoadDir parses every .go file in dir and type-checks them as a single
// package under the given import path. This is the fixture loader behind
// the analysistest package: testdata/src trees are invisible to the go
// tool, so the directory is read directly and only the fixtures' own
// imports (stdlib) are resolved — via go list, same as Load.
func LoadDir(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// An imports-only pre-parse names the packages go list must export
	// before checkFiles can resolve them.
	var names []string
	imports := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		full := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(token.NewFileSet(), full, nil, parser.ImportsOnly)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", full, err)
		}
		names = append(names, e.Name())
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err == nil && p != "unsafe" {
				imports[p] = true
			}
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	exports := make(map[string]string)
	if len(imports) > 0 {
		var patterns []string
		for p := range imports {
			patterns = append(patterns, p)
		}
		sort.Strings(patterns)
		listed, err := goList(dir, patterns)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	fset := token.NewFileSet()
	return checkFiles(fset, exportImporter(fset, exports), path, dir, names)
}
