package readretry_test

import (
	"bytes"
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"readretry"
)

// These tests exercise the public facade exactly the way a downstream user
// would, keeping the exported API honest.

func TestFacadeChipCharacterization(t *testing.T) {
	lab := readretry.NewLab(1500, 1)
	h := lab.RetrySteps(2000, 12, 30)
	if h.Mean < 15 {
		t.Errorf("facade lab: mean N_RR at worst case = %.1f", h.Mean)
	}
}

func TestFacadePlanLatencies(t *testing.T) {
	tm := readretry.PaperStepTimings()
	base := readretry.BuildPlan(readretry.Baseline, 8, tm, readretry.ControllerOptions{})
	pr := readretry.BuildPlan(readretry.PR2, 8, tm, readretry.ControllerOptions{})
	if pr.Latency() >= base.Latency() {
		t.Error("PR2 should beat the baseline through the facade too")
	}
}

func TestFacadeParseScheme(t *testing.T) {
	s, err := readretry.ParseScheme("PnAR2")
	if err != nil || s != readretry.PnAR2 {
		t.Errorf("ParseScheme = %v, %v", s, err)
	}
}

func TestFacadeRPT(t *testing.T) {
	table, err := readretry.ProfileRPT(readretry.DefaultChipParams(), 1, readretry.DefaultRPTConfig())
	if err != nil {
		t.Fatal(err)
	}
	if lvl := table.Lookup(2000, 12); lvl != 6 {
		t.Errorf("worst-case RPT level = %d, want 6 (40%%)", lvl)
	}
}

func TestFacadeEndToEndSimulation(t *testing.T) {
	cfg := readretry.ExperimentSSDConfig()
	cfg.Geometry.BlocksPerPlane = 24
	cfg.Geometry.PagesPerBlock = 48
	cfg.GCThresholdBlocks = 3
	cfg.PreconditionPages = cfg.TotalPages() * 7 / 10
	cfg.Scheme = readretry.PnAR2
	cfg.PEC, cfg.RetentionMonths = 1000, 6

	spec, err := readretry.WorkloadByName("YCSB-C")
	if err != nil {
		t.Fatal(err)
	}
	spec.FootprintPages = cfg.TotalPages() / 2
	recs := readretry.NewWorkload(spec, 3).Generate(600)

	dev, err := readretry.NewSSD(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dev.Run(recs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 600 {
		t.Errorf("completed %d, want 600", st.Completed)
	}
}

func TestFacadeStreamingCachedSweep(t *testing.T) {
	cfg := readretry.QuickSweepConfig()
	cfg.Workloads = []string{"YCSB-C"}
	cfg.Conditions = []readretry.SweepCondition{{PEC: 2000, Months: 6}}
	cfg.Requests = 400
	cfg.Parallelism = 0
	cfg.Cache = readretry.NewSweepCache()

	var streamed bytes.Buffer
	sink, err := readretry.NewSweepCSVSinkFor(cfg, &streamed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sink = sink
	cold, err := readretry.RunSweep(context.Background(), cfg, readretry.Figure14Variants())
	if err != nil {
		t.Fatal(err)
	}

	var buffered bytes.Buffer
	if err := cold.WriteCSV(&buffered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), buffered.Bytes()) {
		t.Error("facade streaming CSV differs from buffered WriteCSV")
	}

	// Warm the same cache: identical result, served without simulating.
	cfg.Sink = nil
	warm, err := readretry.RunSweep(context.Background(), cfg, readretry.Figure14Variants())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("cached facade re-run differs from the cold run")
	}
}

// TestFacadeShardedSweep works an in-process coordinator's queue through
// the facade — Submit, Lease, RunShard, Complete — and requires the merged
// result to match the unsharded run exactly; until the last record lands,
// the job refuses to hand out a partial grid.
func TestFacadeShardedSweep(t *testing.T) {
	cfg := readretry.QuickSweepConfig()
	cfg.Workloads = []string{"YCSB-C", "stg_0"}
	cfg.Conditions = []readretry.SweepCondition{{PEC: 2000, Months: 6}}
	cfg.Requests = 400
	variants := readretry.Figure14Variants()

	unsharded, err := readretry.RunSweep(context.Background(), cfg, variants)
	if err != nil {
		t.Fatal(err)
	}

	c := readretry.NewSweepCoordinator(readretry.SweepCoordinatorOptions{})
	job, err := c.Submit(readretry.SweepSpecOf(cfg, variants), 3)
	if err != nil {
		t.Fatal(err)
	}
	var leases []*readretry.SweepLease
	for l, ok := c.Lease("w"); ok; l, ok = c.Lease("w") {
		leases = append(leases, l)
	}
	if len(leases) != 3 {
		t.Fatalf("coordinator leased %d shards, want 3", len(leases))
	}
	for i, l := range leases {
		if _, err := job.Result(); err == nil {
			t.Fatalf("job reported a result with %d of 3 shards delivered", i)
		}
		rec, err := readretry.RunShard(context.Background(), cfg, variants, l.Manifest)
		if err != nil {
			t.Fatalf("shard %d: %v", l.Manifest.Index, err)
		}
		if _, err := c.Complete(l.ID, rec); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(unsharded, merged) {
		t.Error("facade shard merge differs from the unsharded run")
	}
	var a, b bytes.Buffer
	if err := unsharded.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("facade shard merge CSV differs from the unsharded run")
	}
}

func TestFacadeWorkloadRoster(t *testing.T) {
	if got := len(readretry.Workloads()); got != 12 {
		t.Errorf("workloads = %d, want 12", got)
	}
}

// TestFacadeNamesHaveCallers keeps the facade from regrowing. Every name
// readretry.go exports must either be written as a qualified reference by an
// example, README.md or a root test, or be named by the parameters or
// results of a facade function that is: a name a kept signature hands back
// stays even when no caller spells it out.
func TestFacadeNamesHaveCallers(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "readretry.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	sources, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	sources = append(sources, "README.md")
	err = filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			sources = append(sources, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := regexp.MustCompile(`\breadretry\.([A-Z]\w*)`)
	kept := map[string]bool{}
	for _, path := range sources {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllSubmatch(src, -1) {
			kept[string(m[1])] = true
		}
	}

	var names []string
	var funcs []*ast.FuncDecl
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				names = append(names, d.Name.Name)
				funcs = append(funcs, d)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						names = append(names, id.Name)
					}
				}
			}
		}
	}
	// Functions survive only by being written, so one pass over the written
	// functions' signatures finds every name a kept signature needs.
	var needed []string
	for _, fn := range funcs {
		if !kept[fn.Name.Name] {
			continue
		}
		ast.Inspect(fn.Type, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr: // a type of another package
				return false
			case *ast.Ident:
				needed = append(needed, n.Name)
			}
			return true
		})
	}
	for _, name := range needed {
		kept[name] = true
	}

	var orphans []string
	for _, name := range names {
		if ast.IsExported(name) && !kept[name] {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d facade names have no caller and no kept signature that needs them: %s",
			len(orphans), strings.Join(orphans, ", "))
	}
}
