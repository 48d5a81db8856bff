package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// EpochGuard enforces the generation discipline chantable.go documents
// in prose: a reference that crosses time — a lookup result, a handle,
// a cached capability — captures the generation it was issued under
// and must revalidate it against the live epoch, under the record's
// own mutex, before acting on the record.  PR 7 closed the
// stale-snapshot / lookup-vs-retire / pooled-reuse race class by hand;
// this analyzer closes it by construction.  Two rules:
//
//   - capture→check: a multi-result call that returns an epoch-carrying
//     record together with a uint64 generation (`ch, gen, st :=
//     p.lookup(id)`) taints the record as unchecked.  Before any
//     substantive use — reading payload fields, calling methods — the
//     function must either compare the record's live generation against
//     the captured one, or delegate both to a callee (`ch.abort(err,
//     gen)`), which moves the obligation there.  Locking the record's
//     mutex, reading its generation and nil/status tests are the
//     allowed preamble.
//
//   - check-under-mutex: every generation comparison (`ch.gen.Load() !=
//     gen`, `ent.ch.generation() != ent.gen`) must run while the mutex
//     of the same record is held (a must-held dataflow: joins
//     intersect), because an unlocked check only narrows the race
//     window without closing it.  The deliberate lock-free fast paths
//     in chanTable.lookup — prechecks whose callers re-verify under mu
//     — carry `//vet:ok epochguard` annotations.
//
// Creator-side generation reads (`gen := ch.generation()` on a record
// the function just acquired and still owns exclusively, as in
// Declare) are not captures: there is no concurrent retire to race
// with until the record is published.
var EpochGuard = &Analyzer{
	Name: "epochguard",
	Doc:  "captured generations must be revalidated under the record mutex before use",
	Run:  runEpochGuard,
}

func runEpochGuard(pass *Pass) error {
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				epochCheckBody(pass, pkg, fd.Body)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						epochCheckBody(pass, pkg, lit.Body)
					}
					return true
				})
			}
		}
	}
	return nil
}

// Per-record dataflow facts.
const (
	epUnchecked uint8 = iota + 1
	epChecked
)

type epochState struct {
	rec  map[*types.Var]uint8
	held map[string]bool // must-held mutex owners, keyed by owner expr
}

func (s *epochState) clone() *epochState {
	c := &epochState{rec: make(map[*types.Var]uint8, len(s.rec)), held: make(map[string]bool, len(s.held))}
	for k, v := range s.rec {
		c.rec[k] = v
	}
	for k := range s.held {
		c.held[k] = true
	}
	return c
}

// meet joins src into dst for a must-analysis: held intersects, record
// states take the weaker fact.  Reports whether dst changed.
func (s *epochState) meet(src *epochState) bool {
	changed := false
	for k := range s.held {
		if !src.held[k] {
			delete(s.held, k)
			changed = true
		}
	}
	for k, v := range src.rec {
		if cur, ok := s.rec[k]; !ok {
			s.rec[k] = v
			changed = true
		} else if v < cur {
			s.rec[k] = v
			changed = true
		}
	}
	return changed
}

type epochAnalysis struct {
	pass    *Pass
	pkg     *Package
	pairGen map[*types.Var]*types.Var
	seen    map[token.Pos]bool
}

func epochCheckBody(pass *Pass, pkg *Package, body *ast.BlockStmt) {
	g := buildCFG(body)
	if g.unsupported {
		return
	}
	ea := &epochAnalysis{pass: pass, pkg: pkg, pairGen: make(map[*types.Var]*types.Var), seen: make(map[token.Pos]bool)}
	in := make(map[*cfgNode]*epochState)
	in[g.entry] = &epochState{rec: map[*types.Var]uint8{}, held: map[string]bool{}}
	work := []*cfgNode{g.entry}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		out := in[n].clone()
		ea.transfer(n, out, false)
		for _, s := range n.succs {
			st, ok := in[s]
			if !ok {
				in[s] = out.clone()
				work = append(work, s)
				continue
			}
			if st.meet(out) {
				work = append(work, s)
			}
		}
	}
	// Reporting pass with converged in-states.
	for _, n := range g.nodes {
		st, ok := in[n]
		if !ok {
			continue
		}
		ea.transfer(n, st.clone(), true)
	}
}

func (ea *epochAnalysis) reportf(pos token.Pos, format string, args ...any) {
	if ea.seen[pos] {
		return
	}
	ea.seen[pos] = true
	ea.pass.Reportf(pos, format, args...)
}

// transfer interprets one CFG node.  With report set it also emits
// diagnostics (the post-fixpoint walk).
func (ea *epochAnalysis) transfer(n *cfgNode, st *epochState, report bool) {
	if n.n == nil || n.kind == nkRange {
		return
	}
	info := ea.pkg.Info
	// Captures: `r, gen, st := lookup(...)` in plain or if-init position.
	if a, ok := n.n.(*ast.AssignStmt); ok {
		ea.capture(a, st)
	}
	if ds, ok := n.n.(*ast.DeferStmt); ok {
		// defer mu.Unlock() holds to exit; other deferred calls get the
		// normal interpretation.
		if owner, op := mutexOp(info, ds.Call); owner != "" && (op == "Unlock" || op == "RUnlock") {
			return
		}
	}
	// allowed marks selector nodes sanctioned by a delegation call.
	allowed := make(map[ast.Node]bool)
	ast.Inspect(n.n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false // literal bodies are analyzed separately
		}
		switch x := x.(type) {
		case *ast.CallExpr:
			if owner, op := mutexOp(info, x); owner != "" {
				switch op {
				case "Lock", "RLock":
					st.held[owner] = true
				case "Unlock", "RUnlock":
					delete(st.held, owner)
				}
				return true
			}
			if ea.delegates(x, st, allowed) {
				return true
			}
		case *ast.BinaryExpr:
			if base := ea.genCompare(x); base != nil {
				owner := types.ExprString(base)
				if report && !st.held[owner] {
					ea.reportf(x.Pos(),
						"generation of %s compared outside %s's mutex: the check must run under lock to close the retire race",
						owner, owner)
				}
				if id, ok := ast.Unparen(base).(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok && st.rec[v] == epUnchecked {
						st.rec[v] = epChecked
					}
				}
			}
		case *ast.SelectorExpr:
			if allowed[x] {
				return true
			}
			id, ok := ast.Unparen(x.X).(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := info.Uses[id].(*types.Var)
			if !ok || st.rec[v] != epUnchecked {
				return true
			}
			if epochAllowedSelector(info, x) {
				return true
			}
			if report {
				ea.reportf(x.Pos(),
					"record %s used before revalidating its captured generation under %s.mu",
					id.Name, id.Name)
			}
			st.rec[v] = epChecked // report once per flow
		}
		return true
	})
}

// capture recognizes a lookup-shaped multi-result assignment and
// taints its record result.
func (ea *epochAnalysis) capture(a *ast.AssignStmt, st *epochState) {
	if len(a.Lhs) < 2 || len(a.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	tv, ok := ea.pkg.Info.Types[call]
	if !ok {
		return
	}
	tup, ok := tv.Type.(*types.Tuple)
	if !ok || tup.Len() != len(a.Lhs) {
		return
	}
	recIdx, genIdx := -1, -1
	for i := 0; i < tup.Len(); i++ {
		t := tup.At(i).Type()
		if recIdx < 0 && epochRecordType(t) {
			recIdx = i
		}
		if genIdx < 0 && isPlainUint64(t) {
			genIdx = i
		}
	}
	if recIdx < 0 || genIdx < 0 {
		return
	}
	recID, ok1 := ast.Unparen(a.Lhs[recIdx]).(*ast.Ident)
	genID, ok2 := ast.Unparen(a.Lhs[genIdx]).(*ast.Ident)
	if !ok1 || !ok2 || recID.Name == "_" || genID.Name == "_" {
		return
	}
	recVar := ea.lhsVar(recID)
	genVar := ea.lhsVar(genID)
	if recVar == nil || genVar == nil {
		return
	}
	st.rec[recVar] = epUnchecked
	ea.pairGen[recVar] = genVar
}

func (ea *epochAnalysis) lhsVar(id *ast.Ident) *types.Var {
	info := ea.pkg.Info
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// delegates reports whether call hands a tainted record together with
// its captured generation to a callee (receiver or argument position):
// the callee owns the revalidation.  Marks the record checked and the
// method selector sanctioned.
func (ea *epochAnalysis) delegates(call *ast.CallExpr, st *epochState, allowed map[ast.Node]bool) bool {
	info := ea.pkg.Info
	identVar := func(e ast.Expr) *types.Var {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				return v
			}
		}
		return nil
	}
	var recVar *types.Var
	var funSel *ast.SelectorExpr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if v := identVar(sel.X); v != nil && st.rec[v] == epUnchecked {
			recVar, funSel = v, sel
		}
	}
	if recVar == nil {
		for _, arg := range call.Args {
			if v := identVar(arg); v != nil && st.rec[v] == epUnchecked {
				recVar = v
				break
			}
		}
	}
	if recVar == nil {
		return false
	}
	gen := ea.pairGen[recVar]
	if gen == nil {
		return false
	}
	for _, arg := range call.Args {
		if identVar(arg) == gen {
			st.rec[recVar] = epChecked
			if funSel != nil {
				allowed[funSel] = true
			}
			return true
		}
	}
	return false
}

// genCompare recognizes a generation comparison and returns the
// record-side base expression (`ch` in `ch.gen.Load() != gen`, `e.ch`
// in `e.ch.generation() == e.gen`), or nil.
func (ea *epochAnalysis) genCompare(be *ast.BinaryExpr) ast.Expr {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return nil
	}
	if base := ea.genRead(be.X); base != nil {
		return base
	}
	return ea.genRead(be.Y)
}

// genRead matches `base.gen.Load()` (an atomic.Uint64 field named gen)
// and `base.generation()` (chanCore's lock-free read of it).
func (ea *epochAnalysis) genRead(e ast.Expr) ast.Expr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	info := ea.pkg.Info
	switch sel.Sel.Name {
	case "Load":
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok || inner.Sel.Name != "gen" {
			return nil
		}
		if v, ok := info.Uses[inner.Sel].(*types.Var); ok && v.IsField() && isNamedType(v.Type(), "sync/atomic", "Uint64") {
			return inner.X
		}
	case "generation":
		if f, ok := info.Uses[sel.Sel].(*types.Func); ok {
			if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil &&
				sig.Results().Len() == 1 && isPlainUint64(sig.Results().At(0).Type()) {
				return sel.X
			}
		}
	}
	return nil
}

// epochAllowedSelector reports whether sel is part of the sanctioned
// revalidation preamble on an unchecked record: locking its mutex
// (r.mu) or reading its generation (r.gen, r.generation).  Everything
// else — payload fields, other methods — is a substantive use.
func epochAllowedSelector(info *types.Info, sel *ast.SelectorExpr) bool {
	switch sel.Sel.Name {
	case "mu", "gen", "generation":
		return true
	}
	return false
}

// mutexOp classifies a Lock/Unlock call on a mutex stored in a field
// (`ch.mu.Lock()`), returning the owner expression string ("ch") and
// the operation.
func mutexOp(info *types.Info, call *ast.CallExpr) (string, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	f, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", ""
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	recvT := sig.Recv().Type()
	if !isNamedType(recvT, "sync", "Mutex") && !isNamedType(recvT, "sync", "RWMutex") {
		return "", ""
	}
	mux, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	return types.ExprString(mux.X), op
}

// epochRecordType reports whether t (or its pointee) carries the
// generation discipline: it has a generation() uint64 method.
func epochRecordType(t types.Type) bool {
	if t == nil {
		return false
	}
	n := namedOrPtr(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	f, _, _ := types.LookupFieldOrMethod(t, true, obj.Pkg(), "generation")
	fn, ok := f.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Results().Len() == 1 && isPlainUint64(sig.Results().At(0).Type())
}

// isPlainUint64 reports whether t is the unnamed basic uint64 (named
// wrappers like Status do not qualify).
func isPlainUint64(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.Uint64
}
