package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Each fixture contains both passing cases (functions that must stay
// silent) and failing cases (// want comments).  mustFind doubles as
// the acceptance check that every analyzer demonstrably fires on its
// negative fixture.

// realModule is the module loaded from source once per test binary:
// every real-tree test reads the same Program.
var realModule struct {
	once sync.Once
	prog *Program
	err  error
}

func loadModule(t *testing.T) *Program {
	t.Helper()
	if testing.Short() {
		t.Skip("loads the whole module from source")
	}
	realModule.once.Do(func() {
		loader, err := NewLoader(filepath.Join("..", ".."))
		if err == nil {
			realModule.prog, err = loader.Load()
		}
		realModule.err = err
	})
	if realModule.err != nil {
		t.Fatal(realModule.err)
	}
	return realModule.prog
}

// TestModuleIsClean runs the full suite over the real module: the
// zero-findings gate, which `make test` enforces.  The protomodel
// exploration it runs at the gate bound is the one checked here: a
// clean run that was capped, or whose space degenerated, proves
// nothing.
func TestModuleIsClean(t *testing.T) {
	prog := loadModule(t)
	ProtoLastRun = nil
	diags, err := Run(prog, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
	rep := ProtoLastRun
	switch {
	case rep == nil:
		t.Fatal("protomodel explored nothing")
	case rep.Window != 4 || rep.Writers != 2:
		t.Errorf("protomodel explored K=%d P=%d, want the gate bound K=4 P=2", rep.Window, rep.Writers)
	case rep.Capped:
		t.Errorf("exploration capped at %d states; raise the budget", rep.States)
	case rep.States < 1000:
		t.Errorf("suspiciously small state space (%d states) — model degenerated?", rep.States)
	}
	t.Logf("protomodel K=%d P=%d: %d states, %d transitions", rep.Window, rep.Writers, rep.States, rep.Transitions)
}

// TestModuleUsesTypedAtomics holds the premise that lets the suite
// leave atomics to the type system: no non-test file calls a
// package-level sync/atomic function, so every shared word is a typed
// atomic — a plain access to one does not compile, and `go vet`'s
// copylocks check reports a copy.
func TestModuleUsesTypedAtomics(t *testing.T) {
	prog := loadModule(t)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := calleeFunc(pkg.Info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" &&
					fn.Type().(*types.Signature).Recv() == nil {
					t.Errorf("%s: atomic.%s on a plain word; use a typed atomic", prog.Fset.Position(call.Pos()), fn.Name())
				}
				return true
			})
		}
	}
}

// TestLoaderIndexesModule sanity-checks package discovery.
func TestLoaderIndexesModule(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if got := loader.ModulePath(); got != "asymstream" {
		t.Fatalf("module path = %q, want asymstream", got)
	}
	paths := loader.ModulePackages()
	wantSome := []string{
		"asymstream/internal/wire",
		"asymstream/internal/transput",
		"asymstream/internal/transput/internal/core",
		"asymstream/internal/analysis",
		"asymstream/cmd/transput-vet",
	}
	for _, w := range wantSome {
		found := false
		for _, p := range paths {
			if p == w {
				found = true
			}
		}
		if !found {
			t.Errorf("package %s not indexed (got %d packages)", w, len(paths))
		}
	}
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Errorf("testdata package leaked into the module index: %s", p)
		}
	}
}

// TestAnalyzerRegistry keeps the suite's shape stable.
func TestAnalyzerRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %s", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"waitcycle", "protomodel"} {
		if !names[want] {
			t.Errorf("missing analyzer %s", want)
		}
	}
	if len(names) != 2 {
		t.Errorf("%d analyzers registered, want 2", len(names))
	}
}
