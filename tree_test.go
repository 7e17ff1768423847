package wavnet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// periodicWakers are the functions, as "file func", allowed a ticker that
// wakes a proc because it is no deadline of one wait.
var periodicWakers = map[string]bool{
	// The stall watchdog: it aborts the transfer when no byte has moved
	// for StallTimeout, across every Write and round the migration makes.
	filepath.Join("internal", "vm", "vm.go") + " Migrate": true,
}

// eachSource parses every non-test Go file under root (testdata
// directories skipped, as the go tool skips them) and hands it to visit
// with its path and the file set its positions resolve in.
func eachSource(t *testing.T, root string, visit func(fset *token.FileSet, path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		visit(fset, path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// handBuiltDeadlines lists, as file:line:column, every func literal or
// method value passed to sim.NewTimer, NewTicker, At or Schedule that
// calls Unpark or Interrupt, in the non-test Go files under root. Such a
// callback is a proc's deadline built by hand; Proc.WaitUntil is the one
// that exists.
func handBuiltDeadlines(t *testing.T, root string) []string {
	t.Helper()
	var found []string
	eachSource(t, root, func(fset *token.FileSet, path string, f *ast.File) {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			ticks := ok && periodicWakers[path+" "+fn.Name.Name]
			ast.Inspect(decl, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && schedulesCallback(call.Fun, ticks) {
					for _, arg := range call.Args {
						if wakesProc(arg) {
							found = append(found, fset.Position(arg.Pos()).String())
						}
					}
				}
				return true
			})
		}
	})
	return found
}

// schedulesCallback reports whether fun names a call that runs a callback
// later: sim.NewTimer or sim.NewTicker (unqualified inside package sim),
// or an At or Schedule method. With ticks set, NewTicker does not count.
func schedulesCallback(fun ast.Expr, ticks bool) bool {
	var name string
	switch f := fun.(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		if f.Sel.Name == "At" || f.Sel.Name == "Schedule" {
			return true
		}
		if x, ok := f.X.(*ast.Ident); ok && x.Name == "sim" {
			name = f.Sel.Name
		}
	}
	return name == "NewTimer" || name == "NewTicker" && !ticks
}

// wakesProc reports whether arg is a method value x.Unpark or
// x.Interrupt, or a func literal that calls one.
func wakesProc(arg ast.Expr) bool {
	isWake := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && (sel.Sel.Name == "Unpark" || sel.Sel.Name == "Interrupt")
	}
	lit, ok := arg.(*ast.FuncLit)
	if !ok {
		return isWake(arg)
	}
	wakes := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isWake(call.Fun) {
			wakes = true
		}
		return !wakes
	})
	return wakes
}

// TestNoHandBuiltDeadlines: no proc deadline is a timer callback that
// wakes the proc, and the check catches the planted ones — and only
// those — in testdata/deadlines.
func TestNoHandBuiltDeadlines(t *testing.T) {
	if found := handBuiltDeadlines(t, "internal"); len(found) > 0 {
		t.Errorf("hand-built proc deadlines (use Proc.WaitUntil):\n%s", strings.Join(found, "\n"))
	}
	planted := filepath.Join("testdata", "deadlines", "planted.go")
	want := []string{planted + ":12:27", planted + ":16:25", planted + ":21:32", planted + ":22:31"}
	if found := handBuiltDeadlines(t, filepath.Join("testdata", "deadlines")); !slices.Equal(found, want) {
		t.Errorf("planted violations: found %v, want %v", found, want)
	}
}

// concurrencyUses lists, as file:line:column, every import of sync or
// sync/atomic and every go statement in the non-test Go files under
// root. Everything in a world runs on one goroutine at a time — the
// caller of Run/RunFor or a proc it resumes — so none of them belongs in
// the simulator.
func concurrencyUses(t *testing.T, root string) []string {
	t.Helper()
	var found []string
	eachSource(t, root, func(fset *token.FileSet, _ string, f *ast.File) {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"sync"` || imp.Path.Value == `"sync/atomic"` {
				found = append(found, fset.Position(imp.Pos()).String())
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				found = append(found, fset.Position(g.Pos()).String())
			}
			return true
		})
	})
	return found
}

// TestSingleGoroutine: nothing under internal/ or cmd/ locks, uses
// atomics or starts a goroutine, and the check catches the planted
// violations — and only those — in testdata/singlegoroutine.
func TestSingleGoroutine(t *testing.T) {
	for _, root := range []string{"internal", "cmd"} {
		if found := concurrencyUses(t, root); len(found) > 0 {
			t.Errorf("locks, atomics or goroutines under %s (a world is single-goroutine):\n%s", root, strings.Join(found, "\n"))
		}
	}
	planted := filepath.Join("testdata", "singlegoroutine", "planted.go")
	want := []string{planted + ":6:2", planted + ":7:2", planted + ":20:2"}
	if found := concurrencyUses(t, filepath.Join("testdata", "singlegoroutine")); !slices.Equal(found, want) {
		t.Errorf("planted violations: found %v, want %v", found, want)
	}
}

// TestBenchmarkModuleVets: benchmark/ is a module of its own that the
// tree's go vet and go test do not build, so an exported name it imports
// could vanish unnoticed; vetting it here catches that. It needs nothing
// beyond the checkout.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the benchmark module")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	cmd := exec.Command(gobin, "vet", "-C", "benchmark", ".")
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOPROXY=off", "GOWORK=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -C benchmark .: %v\n%s", err, out)
	}
}
