// Package analysis is a self-contained static-analysis framework for
// this module, in the spirit of golang.org/x/tools/go/analysis but
// built entirely on the standard library (go/parser, go/types and the
// source importer).  The container this repo builds in has no module
// proxy and an empty module cache, so x/tools cannot be imported; the
// framework mirrors its concepts — Analyzer, Pass, Diagnostic, and an
// analysistest-style fixture harness — at the scale this module needs.
//
// The analyzers are whole-program: a Pass sees every package of the
// module at once (shared FileSet, per-package *types.Info), because
// the properties they prove — slab ownership, discipline purity over
// the call graph, lock order and wait cycles — are inherently
// interprocedural.  Dataflow runs over a hand-rolled statement-level
// CFG (cfg.go) with a small fixpoint engine (lifetime.go) standing in
// for SSA.  An invariant a type can enforce gets no analyzer: every
// shared word is a typed atomic (a plain access does not compile, and
// `go vet`'s copylocks check catches a copy).
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named check.  Run inspects the whole program and
// reports findings through the pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries a loaded program and collects diagnostics.
type Pass struct {
	Prog *Program

	diags []Diagnostic
	cur   *Analyzer
}

// Diagnostic is one finding, positioned in the shared FileSet.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	name := ""
	if p.cur != nil {
		name = p.cur.Name
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over prog and returns their diagnostics
// sorted by position.  Analyzer errors (not findings) abort the run.
// Findings acknowledged in the source with a `//vet:ok <analyzer>`
// annotation (same line or the line above) are suppressed: the comment
// is the reviewed, in-tree justification for a deliberate deviation —
// a lock-free fast path the analyzer's conservative rule cannot see.
//
// Suppressions are themselves checked: a vet:ok naming an analyzer
// that ran but no longer fires at that site is reported as stale
// (analyzer name "vetok").  An annotation outlives the code shape it
// excused more often than it gets cleaned up; a stale one silently
// masks the next real finding on that line.  Annotations naming
// analyzers outside the selected set are left alone — a partial -run
// cannot judge them.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	pass := &Pass{Prog: prog}
	for _, a := range analyzers {
		pass.cur = a
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis %s: %w", a.Name, err)
		}
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	pass.diags = filterAnnotated(prog, pass.diags, ran)
	sort.Slice(pass.diags, func(i, j int) bool {
		a, b := pass.diags[i], pass.diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return pass.diags, nil
}

// filterAnnotated drops diagnostics covered by a `//vet:ok <analyzer>`
// annotation.  The annotation names one or more analyzers (comma or
// space separated); anything after ` -- ` is free-text justification.
// It covers findings on its own line and on the line directly below,
// so both trailing and standalone comment placements work.
//
// ran is the set of analyzer names that executed this run.  Each
// (annotation, name) pair whose analyzer ran but suppressed nothing is
// reported back as a stale suppression.
func filterAnnotated(prog *Program, diags []Diagnostic, ran map[string]bool) []Diagnostic {
	type key struct {
		file string
		line int
	}
	// ann is one named suppression; the same ann is registered for its
	// own line and the line below, so a hit on either keeps it live.
	type ann struct {
		pos  token.Position
		name string
		hit  bool
	}
	ok := make(map[key]map[string]*ann)
	var anns []*ann
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, found := strings.CutPrefix(text, "vet:ok")
					if !found {
						continue
					}
					if i := strings.Index(rest, "--"); i >= 0 {
						rest = rest[:i]
					}
					names := strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
					if len(names) == 0 {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					for _, n := range names {
						a := &ann{pos: pos, name: n}
						anns = append(anns, a)
						for _, line := range []int{pos.Line, pos.Line + 1} {
							k := key{file: pos.Filename, line: line}
							if ok[k] == nil {
								ok[k] = make(map[string]*ann)
							}
							ok[k][n] = a
						}
					}
				}
			}
		}
	}
	kept := diags
	if len(ok) > 0 {
		kept = diags[:0]
		for _, d := range diags {
			if a := ok[key{file: d.Pos.Filename, line: d.Pos.Line}][d.Analyzer]; a != nil {
				a.hit = true
				continue
			}
			kept = append(kept, d)
		}
	}
	for _, a := range anns {
		if !a.hit && ran[a.name] {
			kept = append(kept, Diagnostic{
				Pos:      a.pos,
				Analyzer: "vetok",
				Message: fmt.Sprintf(
					"stale suppression: //vet:ok %s no longer matches any %s finding here — remove it or it will mask the next real one",
					a.name, a.name),
			})
		}
	}
	return kept
}

// All returns the full transput-vet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		SlabOwn,
		Discipline,
		Fusable,
		PoolHygiene,
		MetricsTable,
		EpochGuard,
		ConnLife,
		SendOwn,
		Goroleak,
		WaitCycle,
		ProtoModel,
	}
}
