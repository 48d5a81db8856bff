package analysis

// A miniature analysistest: fixtures live under testdata/src/<name>,
// are loaded through the same Loader as real runs (so they may import
// real module packages such as asymstream/internal/transput), and declare
// expected findings with trailing comments:
//
//	go spin() // want "never terminates"
//
// Each quoted string is a regexp that must match a diagnostic reported
// on that line; diagnostics with no matching want comment, and want
// comments with no matching diagnostic, both fail the test.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

var wantRE = regexp.MustCompile(`//\s*want((?:\s+"(?:[^"\\]|\\.)*")+)`)
var wantStrRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// runFixture loads testdata/src/<fixture> (and its subdirectories) and
// runs the analyzer over it, checking want comments.
func runFixture(t *testing.T, a *Analyzer, fixture string) []Diagnostic {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join("testdata", "src", fixture)
	if _, err := os.Stat(base); err != nil {
		t.Fatalf("fixture %s: %v", fixture, err)
	}
	var paths []string
	err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		entries, _ := os.ReadDir(path)
		hasGo := false
		for _, e := range entries {
			if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
				hasGo = true
			}
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(filepath.Join("testdata", "src"), path)
		if err != nil {
			return err
		}
		ip := "fixture/" + filepath.ToSlash(rel)
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		loader.AddPackage(ip, abs)
		paths = append(paths, ip)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := loader.Load(paths...)
	if err != nil {
		t.Fatalf("fixture %s: %v", fixture, err)
	}
	diags, err := Run(prog, []*Analyzer{a})
	if err != nil {
		t.Fatalf("fixture %s: %v", fixture, err)
	}
	checkWants(t, prog, diags)
	return diags
}

type wantKey struct {
	file string
	line int
}

// checkWants matches diagnostics against // want comments.
func checkWants(t *testing.T, prog *Program, diags []Diagnostic) {
	t.Helper()
	type expectation struct {
		re      *regexp.Regexp
		raw     string
		matched bool
	}
	wants := make(map[wantKey][]*expectation)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					for _, q := range wantStrRE.FindAllString(m[1], -1) {
						raw, err := strconv.Unquote(q)
						if err != nil {
							t.Errorf("%s: bad want string %s: %v", pos, q, err)
							continue
						}
						re, err := regexp.Compile(raw)
						if err != nil {
							t.Errorf("%s: bad want regexp %q: %v", pos, raw, err)
							continue
						}
						k := wantKey{file: pos.Filename, line: pos.Line}
						wants[k] = append(wants[k], &expectation{re: re, raw: raw})
					}
				}
			}
		}
	}
	for _, d := range diags {
		k := wantKey{file: d.Pos.Filename, line: d.Pos.Line}
		found := false
		for _, exp := range wants[k] {
			if !exp.matched && exp.re.MatchString(d.Message) {
				exp.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	for k, exps := range wants {
		for _, exp := range exps {
			if !exp.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, exp.raw)
			}
		}
	}
}

// mustFind asserts at least one diagnostic mentions pattern — used to
// prove each negative fixture demonstrably fires.
func mustFind(t *testing.T, diags []Diagnostic, pattern string) {
	t.Helper()
	re := regexp.MustCompile(pattern)
	for _, d := range diags {
		if re.MatchString(d.Message) {
			return
		}
	}
	t.Errorf("no diagnostic matches %q in %s", pattern, fmt.Sprint(diags))
}
