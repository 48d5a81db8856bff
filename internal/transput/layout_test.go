package transput

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// The package layout is the discipline rule (DESIGN §10): a read-only
// face cannot reach the write-only side, nor the reverse, because its
// package does not import it; the fused edge cannot reach a port or an
// invocation, because itemio imports neither.  Core is shared, so the
// one rule the import graph cannot state — which of core's names belong
// to one face — is the table below.

const (
	modPath    = "asymstream"
	itemioPath = modPath + "/internal/transput/internal/itemio"
	corePath   = modPath + "/internal/transput/internal/core"
	pullPath   = modPath + "/internal/transput/internal/pull"
	pushPath   = modPath + "/internal/transput/internal/push"
)

// faceOnly lists core's names that belong to one face: the operation,
// its records and their pools, and the record's operations that serve
// it.  Methods are keyed Type.Method.
var faceOnly = map[string][]string{
	pullPath: {"OpTransfer", "TransferRequest", "TransferReply", "TransferRequests", "TransferReplies", "ChanRef.Take", "ChanRef.Put"},
	pushPath: {"OpDeliver", "DeliverRequest", "DeliverReply", "DeliverRequests", "DeliverReplies", "ChanRef.Absorb", "ChanRef.Next", "InputCapacity"},
}

// moduleDir maps a module import path to its directory.
func moduleDir(t *testing.T, path string) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(path, modPath)))
}

// moduleDeps is the set of module packages path imports, transitively
// (non-test files of the default build).
func moduleDeps(t *testing.T, path string) map[string]bool {
	t.Helper()
	deps := map[string]bool{}
	for work := []string{path}; len(work) > 0; {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		bp, err := build.ImportDir(moduleDir(t, p), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range bp.Imports {
			if strings.HasPrefix(imp, modPath+"/") && !deps[imp] {
				deps[imp] = true
				work = append(work, imp)
			}
		}
	}
	return deps
}

func TestPackageLayout(t *testing.T) {
	for _, row := range []struct {
		pkg    string
		denied []string
	}{
		{pullPath, []string{pushPath}},
		{pushPath, []string{pullPath}},
		{itemioPath, []string{modPath + "/internal/kernel", modPath + "/internal/netsim", corePath, pullPath, pushPath}},
	} {
		deps := moduleDeps(t, row.pkg)
		for _, d := range row.denied {
			if deps[d] {
				t.Errorf("%s imports %s (transitively)", row.pkg, d)
			}
		}
	}
	for face, names := range faceOnly {
		other := pullPath
		if face == pullPath {
			other = pushPath
		}
		denied := map[string]bool{}
		for _, n := range faceOnly[other] {
			denied[n] = true
		}
		info := checkPackage(t, face)
		for id, obj := range info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() == corePath && denied[coreKey(obj)] {
				t.Errorf("%s: %s names core.%s, which serves the other face", layoutFset.Position(id.Pos()), face, coreKey(obj))
			}
		}
		// A record of the other face's reaching this one through a core
		// helper shows as the type of some expression here.
		for e, tv := range info.Types {
			if n, ok := derefNamed(tv.Type); ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == corePath && denied[n.Obj().Name()] {
				t.Errorf("%s: %s holds a core.%s, which serves the other face", layoutFset.Position(e.Pos()), face, n.Obj().Name())
			}
		}
		for _, n := range names {
			if !coreDeclares(t, n) {
				t.Errorf("core declares no %s; the face table is stale", n)
			}
		}
	}
}

// coreKey names a core object as faceOnly does.
func coreKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if n, ok := derefNamed(recv.Type()); ok {
				return n.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return obj.Name()
}

// derefNamed is t, or what t points to, when that is a named type.
func derefNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return n, ok
}

// coreDeclares reports whether core has the named object or method.
func coreDeclares(t *testing.T, key string) bool {
	for _, obj := range checkPackage(t, corePath).Defs {
		if obj != nil && coreKey(obj) == key {
			return true
		}
	}
	return false
}

// checked caches the module packages checkPackage has type-checked.
var (
	layoutFset  = token.NewFileSet()
	checked     = map[string]*types.Package{}
	checkedInfo = map[string]*types.Info{}
)

// checkPackage type-checks a module package from source: module imports
// through this loader, the standard library through the source importer
// (go/build, no subprocess).
func checkPackage(t *testing.T, path string) *types.Info {
	t.Helper()
	if info, ok := checkedInfo[path]; ok {
		return info
	}
	dir := moduleDir(t, path)
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(layoutFset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: layoutImporter{t}}
	pkg, err := conf.Check(path, layoutFset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	checked[path], checkedInfo[path] = pkg, info
	return info
}

var stdImporter = importer.ForCompiler(layoutFset, "source", nil)

type layoutImporter struct{ t *testing.T }

func (l layoutImporter) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, modPath+"/") {
		return stdImporter.Import(path)
	}
	if _, ok := checked[path]; !ok {
		checkPackage(l.t, path)
	}
	return checked[path], nil
}
