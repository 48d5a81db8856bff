package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Package is one type-checked package of the analyzed program.
type Package struct {
	Path  string // import path ("asymstream/internal/wire")
	Dir   string
	Files []*ast.File // non-test files, parsed with comments
	Types *types.Package
	Info  *types.Info
}

// Program is the unit an Analyzer runs over: the set of packages under
// analysis, sharing one FileSet.  Dependencies outside the set (the
// standard library, and module packages a fixture imports) are
// type-checked for resolution but not analyzed.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package // sorted by import path
}

// Package returns the analyzed package with the given import path, or
// nil.
func (p *Program) Package(path string) *Package {
	for _, pkg := range p.Pkgs {
		if pkg.Path == path {
			return pkg
		}
	}
	return nil
}

// Loader type-checks packages of one module from source.  Imports of
// module packages resolve through the loader's own cache; everything
// else (the standard library) goes through go/importer's source
// importer, so no compiled export data or module proxy is needed.
type Loader struct {
	Fset    *token.FileSet
	root    string            // module root directory
	modPath string            // module path from go.mod
	dirs    map[string]string // import path -> directory
	pkgs    map[string]*Package
	loading map[string]bool
	std     types.ImporterFrom
}

var moduleLine = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// NewLoader scans the module rooted at root and indexes its package
// directories (skipping testdata and hidden directories).
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: not a module root: %w", err)
	}
	m := moduleLine.FindSubmatch(gomod)
	if m == nil {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:    fset,
		root:    root,
		modPath: string(m[1]),
		dirs:    make(map[string]string),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		ip := l.modPath
		if rel != "." {
			ip = l.modPath + "/" + filepath.ToSlash(rel)
		}
		l.dirs[ip] = dir
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// ModulePath returns the module path from go.mod.
func (l *Loader) ModulePath() string { return l.modPath }

// ModulePackages returns the import paths of every package directory
// found under the module root, sorted.
func (l *Loader) ModulePackages() []string {
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// AddPackage registers an extra package directory (a test fixture)
// under the given import path, so it can be loaded and so other
// registered packages can import it.
func (l *Loader) AddPackage(importPath, dir string) {
	l.dirs[importPath] = dir
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom implements types.ImporterFrom: module packages load
// through the loader's cache, everything else through the source
// importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := l.dirs[path]; ok {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// Load type-checks the given import paths (every registered package
// when none are given) and returns them as a Program.  Dependencies
// are loaded as needed but only the requested paths appear in
// Program.Pkgs.
func (l *Loader) Load(paths ...string) (*Program, error) {
	if len(paths) == 0 {
		paths = l.ModulePackages()
	}
	prog := &Program{Fset: l.Fset}
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog, nil
}

func (l *Loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, ok := l.dirs[path]
	if !ok {
		return nil, fmt.Errorf("analysis: unknown package %s", path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		// The default build, as go build sees it: a race build's files
		// stay out.
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}
