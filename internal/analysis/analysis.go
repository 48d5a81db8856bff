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
// the properties they prove — lock order and signals under their mutex,
// credit-protocol liveness — are inherently interprocedural.  Control flow is a hand-rolled
// statement-level CFG (cfg.go) standing in for SSA.  An invariant a
// type, the import graph or a runtime check can hold gets no analyzer:
// which face may reach which is transput's package layout (its
// layout_test.go); every shared word
// is a typed atomic (a plain access does not compile, and `go vet`'s
// copylocks check catches a copy); slab views are audited by
// `Slab.Close` and `wire.SlabLeaked`; a pooled record or frame used
// after its `Put` is a data race in the race build; a leaked
// connection shows in the transport tests' fd baseline (`quiesce.FDs`)
// and a goroutine that never ends in the goroutine baseline every
// teardown test takes (`quiesce.Baseline`); a cond wait outside its
// predicate loop, or one nobody signals, fails the channel record's and
// the window gate's own tests.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
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
// There is no suppression: a finding is fixed, not annotated.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	pass := &Pass{Prog: prog}
	for _, a := range analyzers {
		pass.cur = a
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis %s: %w", a.Name, err)
		}
	}
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

// All returns the full transput-vet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		WaitCycle,
		ProtoModel,
	}
}
