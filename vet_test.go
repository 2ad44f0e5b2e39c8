package sea

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// goTool locates the go binary, skipping the test in -short mode or when
// there is none.
func goTool(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping go tool checks in -short mode")
	}
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := exec.LookPath(goBin); err != nil {
		if goBin, err = exec.LookPath("go"); err != nil {
			t.Skip("go binary not found")
		}
	}
	return goBin
}

// TestGoVetPasses keeps the whole module go vet clean. Running it inside the
// test suite keeps the check active even where the CI vet step is skipped.
func TestGoVetPasses(t *testing.T) {
	if out, err := exec.Command(goTool(t), "vet", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... failed: %v\n%s", err, out)
	}
}

// TestImportBoundaries keeps the wire protocol in one place: under internal/
// only httpapi, cluster, obs (the pprof listener) and faults (the transport
// fault site) import net/http — tests included — and httpapi does not know
// about cluster, which contributes its routes from the outside.
func TestImportBoundaries(t *testing.T) {
	out, err := exec.Command(goTool(t), "list", "-f",
		`{{.ImportPath}}: {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}`,
		"./internal/...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list failed: %v\n%s", err, out)
	}
	mayServe := map[string]bool{
		"repro/internal/httpapi": true, "repro/internal/cluster": true,
		"repro/internal/obs": true, "repro/internal/faults": true,
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, imports, _ := strings.Cut(line, ": ")
		for _, imp := range strings.Fields(imports) {
			if strings.HasPrefix(imp, "net/http") && !mayServe[pkg] {
				t.Errorf("%s imports %s; HTTP belongs in internal/httpapi", pkg, imp)
			}
			if pkg == "repro/internal/httpapi" && imp == "repro/internal/cluster" {
				t.Errorf("%s imports %s; cluster adds its routes to the table, not the reverse", pkg, imp)
			}
		}
	}
}

// TestNoContextTwins keeps one way into every job: no package under
// internal/ exports both F and FContext (functions or methods, non-test
// files). The context form is the only form; a caller without a deadline
// passes context.Background().
func TestNoContextTwins(t *testing.T) {
	exported := map[string]map[string]bool{} // package dir → exported func and method names
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if exported[dir] == nil {
			exported[dir] = map[string]bool{}
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.IsExported() {
				exported[dir][fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir, names := range exported {
		for name := range names {
			base, isCtx := strings.CutSuffix(name, "Context")
			if isCtx && names[base] {
				t.Errorf("%s exports both %s and %s; keep one form", dir, base, name)
			}
		}
	}
}

// sourceFiles lists the non-test Go files of internal/pkg and fails the test
// when there are none, so a check over a deleted or misspelled package
// cannot pass by inspecting nothing.
func sourceFiles(t *testing.T, pkg string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	files = slices.DeleteFunc(files, func(path string) bool { return strings.HasSuffix(path, "_test.go") })
	if len(files) == 0 {
		t.Fatalf("internal/%s has no non-test Go file", pkg)
	}
	return files
}

// TestNoFanOutInsideARequest keeps a search on the goroutine that was handed
// it: no non-test file of a package a search runs through has a go
// statement or a sync.WaitGroup. Parallelism is between requests — the
// engine's Batch workers and single-flight — which this does not cover.
func TestNoFanOutInsideARequest(t *testing.T) {
	fset := token.NewFileSet()
	for _, pkg := range []string{"attr", "ws", "graph", "sampling", "stats", "kcore", "truss", "cohesive", "sea", "exact", "baselines", "hetgraph", "query"} {
		for _, path := range sourceFiles(t, pkg) {
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s: go statement inside a request", fset.Position(n.Pos()))
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Name == "sync" && n.Sel.Name == "WaitGroup" {
						t.Errorf("%s: sync.WaitGroup inside a request", fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	}
}

// TestOneGeneratorPerSearch keeps a search's randomness in one place: the
// non-test files of the solver packages build exactly one generator,
// seaRun.rand's from Options.Seed at a search's first draw, and every
// sampler and estimator draws from the *rand.Rand it is handed.
func TestOneGeneratorPerSearch(t *testing.T) {
	var sites []string
	for _, pkg := range []string{"sea", "stats", "sampling", "kcore", "truss", "attr"} {
		for _, path := range sourceFiles(t, pkg) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for range strings.Count(string(src), "rand.New(") {
				sites = append(sites, filepath.ToSlash(path))
			}
		}
	}
	if want := []string{"internal/sea/sea.go"}; !slices.Equal(sites, want) {
		t.Errorf("rand.New( in solver packages: %v, want %v", sites, want)
	}
}

// TestSEAHasOneExtractionPath keeps SEA's way from a sample to a maintainer
// single: both models extract from the sample's membership on the graph's
// own node IDs (kcore.MaximalSubIn, truss.MaximalSubIn), so no non-test file
// of internal/sea induces a subgraph or maps induced IDs back. graph.InducedStructureOf stays, as the reference
// the tests compare against and for benchmark/trace.go.
func TestSEAHasOneExtractionPath(t *testing.T) {
	for _, path := range sourceFiles(t, "sea") {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"InducedStructureOf", "identityMap"} {
			if strings.Contains(string(src), name) {
				t.Errorf("%s names %s; extraction reads the sample's membership", filepath.ToSlash(path), name)
			}
		}
	}
}

// TestNoWholeGraphPeelPerQuery keeps a query's work bounded by what it
// explores: no non-test file of a package a query runs through calls
// kcore.Decompose, truss.Decompose or kcore.MaxCoreness, which peel all of
// g. Every solver starts from kcore.MaximalSubIn or truss.MaximalSubIn,
// which walk out from q. The engine's admission indexes, the experiments'
// dataset tables and the library's CoreDecompose (api.go) index all of g on
// purpose and are not checked.
func TestNoWholeGraphPeelPerQuery(t *testing.T) {
	fset := token.NewFileSet()
	peels := map[string][]string{"kcore": {"Decompose", "MaxCoreness"}, "truss": {"Decompose"}}
	for _, pkg := range []string{"sea", "exact", "baselines", "query", "hetgraph"} {
		for _, path := range sourceFiles(t, pkg) {
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn, ok := call.Fun.(*ast.SelectorExpr); ok {
					if x, ok := fn.X.(*ast.Ident); ok && slices.Contains(peels[x.Name], fn.Sel.Name) {
						t.Errorf("%s: calls %s.%s, a peel of all of g; extract from q with MaximalSubIn", fset.Position(call.Pos()), x.Name, fn.Sel.Name)
					}
				}
				return true
			})
		}
	}
}

// TestOneTrussDecompositionPerEngine keeps the serving stack to the one
// whole-graph truss decomposition an engine's construction runs, and only
// for a graph whose index does not already carry the per-edge trussness: no
// non-test file of engine, mutate, catalog or cluster calls truss.Decompose
// except NewFromIndex in engine. A mutation, a mount, a replay or a
// promotion reads the per-edge trussness the engine was built with, and
// keeps it up to date incrementally.
func TestOneTrussDecompositionPerEngine(t *testing.T) {
	fset := token.NewFileSet()
	allowed := 0
	for _, pkg := range []string{"engine", "mutate", "catalog", "cluster"} {
		for _, path := range sourceFiles(t, pkg) {
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range file.Decls {
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || fn.Sel.Name != "Decompose" {
						return true
					}
					if x, ok := fn.X.(*ast.Ident); !ok || x.Name != "truss" {
						return true
					}
					if fd, ok := decl.(*ast.FuncDecl); ok && pkg == "engine" && fd.Recv == nil && fd.Name.Name == "NewFromIndex" {
						allowed++
						return true
					}
					t.Errorf("%s: calls truss.Decompose; the per-edge trussness is the engine's construction column", fset.Position(call.Pos()))
					return true
				})
			}
		}
	}
	if allowed != 1 {
		t.Errorf("engine.NewFromIndex calls truss.Decompose %d times, want once", allowed)
	}
}

// TestNoSearchCallsBLB keeps the Bag of Little Bootstraps out of the program:
// SEA's estimation step takes stats.MeanCI's closed form, and stats.BLB
// stays only as the reference the tests and benchmarks compare it against.
// No non-test file of this module (benchmark/ is its own) calls it.
func TestNoSearchCallsBLB(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "benchmark" || path == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fn := call.Fun.(type) {
			case *ast.SelectorExpr:
				if x, ok := fn.X.(*ast.Ident); ok && x.Name == "stats" && fn.Sel.Name == "BLB" {
					t.Errorf("%s: calls stats.BLB; the interval of a mean is stats.MeanCI", fset.Position(call.Pos()))
				}
			case *ast.Ident:
				if file.Name.Name == "stats" && fn.Name == "BLB" {
					t.Errorf("%s: calls BLB; the interval of a mean is MeanCI", fset.Position(call.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no non-test Go file inspected")
	}
}
