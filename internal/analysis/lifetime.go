package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Shared intraprocedural lifetime engine.  Two dataflow analyses run
// over the statement CFG:
//
//   - obligation mode finds values that are allocated (slab views,
//     connections, swapped-out frame queues) and may reach a function exit without being
//     released or handed off.  Ownership transfers are generous: any
//     use that lets the value escape — call argument, return value,
//     store into a field/index/channel/composite, capture by a
//     closure — discharges the obligation, so only values that are
//     plainly dropped on the floor are reported.
//
//   - stale mode finds uses after release: once a value has been
//     passed to its releasing function on some path, any later use of
//     the same variable is flagged.  Reassignment clears the state;
//     nil comparisons and deferred releases do not count.
//
// The lattice per variable is tiny (untracked < released/done < owes)
// and in-states only grow through joins, so the worklist terminates.

type lifetimeSpec struct {
	pkg *Package
	// isAlloc reports whether the call's results carry an obligation
	// (slab.Alloc, net.Dial).  Multi-result
	// allocations (`conn, err := dial()`) obligate every trackable
	// left-hand variable, and an error-typed co-result is remembered as
	// the pairing: on a branch that assumes the error is non-nil, the
	// paired obligations clear (the allocation failed, there is nothing
	// to release).
	isAlloc func(*ast.CallExpr) bool
	// isAllocExpr reports whether a non-call RHS expression acquires an
	// obligation (a coalescer queue swapped out of its field).  May be
	// nil.
	isAllocExpr func(ast.Expr) bool
	// retainArgs returns ident arguments this call adds an obligation
	// to (wire.Retain).  May be nil.
	retainArgs func(*ast.CallExpr) []ast.Expr
	// releaseArgs returns ident arguments this call releases
	// (wire.Release, PutFrame).  May be nil.
	releaseArgs func(*ast.CallExpr) []ast.Expr
	// rangeReleases reports whether ranging over a tracked variable
	// discharges it (a drain loop that hands every element back).  May
	// be nil.
	rangeReleases func(*ast.RangeStmt) bool
	// trackable filters the variable types the engine follows.
	trackable func(*types.Var) bool
}

// Per-variable dataflow facts.
const (
	vNone uint8 = iota // untracked / discharged
	vDone              // obligation discharged (released or escaped)
	vOwes              // live obligation
)

type varState map[*types.Var]uint8

func (s varState) clone() varState {
	c := make(varState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// mergeInto joins src into dst (max over the lattice; vOwes wins).
// Reports whether dst changed.
func mergeInto(dst, src varState) bool {
	changed := false
	for k, v := range src {
		if v > dst[k] {
			dst[k] = v
			changed = true
		}
	}
	return changed
}

type leak struct {
	v        *types.Var
	allocPos token.Pos
	exitPos  token.Pos
}

type staleUse struct {
	v          *types.Var
	releasePos token.Pos
	usePos     token.Pos
}

type lifetime struct {
	spec  lifetimeSpec
	g     *funcCFG
	stale bool // stale mode vs obligation mode

	in       map[*cfgNode]varState
	allocPos map[*types.Var]token.Pos
	relPos   map[*types.Var]token.Pos
	// pairErr maps a tracked variable to the error variable allocated
	// alongside it (`conn, err := dial()`), consumed by assume nodes.
	pairErr map[*types.Var]*types.Var

	// report is set only during staleUses' re-walk pass.
	report func(*types.Var, token.Pos)
}

// runLifetime runs the engine over a function body.
func runLifetime(spec lifetimeSpec, body *ast.BlockStmt, stale bool) *lifetime {
	g := buildCFG(body)
	lt := &lifetime{
		spec:     spec,
		g:        g,
		stale:    stale,
		in:       make(map[*cfgNode]varState),
		allocPos: make(map[*types.Var]token.Pos),
		relPos:   make(map[*types.Var]token.Pos),
		pairErr:  make(map[*types.Var]*types.Var),
	}
	if g.unsupported {
		return lt
	}
	lt.in[g.entry] = varState{}
	work := []*cfgNode{g.entry}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		out := lt.in[n].clone()
		lt.transfer(n, out)
		for _, s := range n.succs {
			st, ok := lt.in[s]
			if !ok {
				lt.in[s] = out.clone()
				work = append(work, s)
				continue
			}
			if mergeInto(st, out) {
				work = append(work, s)
			}
		}
	}
	return lt
}

// leaks reports obligations live at a normal exit (obligation mode).
func (lt *lifetime) leaks() []leak {
	if lt.g.unsupported || lt.stale {
		return nil
	}
	seen := make(map[*types.Var]leak)
	for _, exit := range lt.g.exits {
		st, ok := lt.in[exit]
		if !ok {
			continue // unreachable exit
		}
		out := st.clone()
		lt.transfer(exit, out)
		for v, s := range out {
			if s != vOwes {
				continue
			}
			if _, dup := seen[v]; !dup {
				seen[v] = leak{v: v, allocPos: lt.allocPos[v], exitPos: exitPos(exit)}
			}
		}
	}
	out := make([]leak, 0, len(seen))
	for _, l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].allocPos < out[j].allocPos })
	return out
}

// staleUses reports uses after release (stale mode).
func (lt *lifetime) staleUses() []staleUse {
	if lt.g.unsupported || !lt.stale {
		return nil
	}
	seen := make(map[token.Pos]staleUse)
	for _, n := range lt.g.nodes {
		st, ok := lt.in[n]
		if !ok {
			continue
		}
		work := st.clone()
		lt.collectStale(n, work, func(v *types.Var, pos token.Pos) {
			if _, dup := seen[pos]; !dup {
				seen[pos] = staleUse{v: v, releasePos: lt.relPos[v], usePos: pos}
			}
		})
	}
	out := make([]staleUse, 0, len(seen))
	for _, u := range seen {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].usePos < out[j].usePos })
	return out
}

func exitPos(n *cfgNode) token.Pos {
	if n.n != nil {
		return n.n.Pos()
	}
	return token.NoPos
}

// transfer applies node n's effects to st in place.
func (lt *lifetime) transfer(n *cfgNode, st varState) {
	switch n.kind {
	case nkJoin, nkEnd:
		return
	case nkAssume:
		if !lt.stale {
			lt.applyAssume(n.cond, n.negate, st)
		}
		return
	case nkRange:
		// for k, v := range x — ranging does not consume; the loop
		// variables become fresh definitions.  A spec may declare the
		// range a discharge (a drain loop over swapped-out frames).
		lt.clearDef(n.rng.Key, st)
		lt.clearDef(n.rng.Value, st)
		if !lt.stale && lt.spec.rangeReleases != nil && lt.spec.rangeReleases(n.rng) {
			if id, ok := ast.Unparen(n.rng.X).(*ast.Ident); ok {
				if v := lt.varOf(id); v != nil {
					st[v] = vDone
				}
			}
		}
		return
	}
	if n.n == nil {
		return
	}
	lt.applyNode(n.n, st)
}

// collectStale re-walks a node with the converged in-state, reporting
// uses of released variables.
func (lt *lifetime) collectStale(n *cfgNode, st varState, report func(*types.Var, token.Pos)) {
	if n.kind == nkJoin || n.kind == nkEnd || n.kind == nkRange || n.n == nil {
		return
	}
	lt.report = report
	lt.applyNode(n.n, st)
	lt.report = nil
}

func (lt *lifetime) clearDef(e ast.Expr, st varState) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	if v := lt.varOf(id); v != nil {
		delete(st, v)
	}
}

func (lt *lifetime) varOf(id *ast.Ident) *types.Var {
	info := lt.spec.pkg.Info
	if obj, ok := info.Uses[id].(*types.Var); ok && lt.spec.trackable(obj) {
		return obj
	}
	if obj, ok := info.Defs[id].(*types.Var); ok && lt.spec.trackable(obj) {
		return obj
	}
	return nil
}

// applyNode dispatches on the statement/expression forms a CFG node
// can hold.
func (lt *lifetime) applyNode(n ast.Node, st varState) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		lt.applyAssign(n, st)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, val := range vs.Values {
					lt.useExpr(val, st, true)
				}
				if len(vs.Names) == 1 && len(vs.Values) == 1 {
					lt.applyDef(vs.Names[0], vs.Values[0], st)
				} else {
					for _, name := range vs.Names {
						lt.clearDef(name, st)
					}
				}
			}
		}
	case *ast.ExprStmt:
		lt.useExpr(n.X, st, false)
	case *ast.SendStmt:
		lt.useExpr(n.Chan, st, false)
		lt.useExpr(n.Value, st, true)
	case *ast.IncDecStmt:
		lt.useExpr(n.X, st, false)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			lt.useExpr(r, st, true)
		}
	case *ast.DeferStmt:
		if lt.stale {
			return // a deferred release runs at exit; later uses are fine
		}
		lt.useExpr(n.Call, st, false)
	case *ast.GoStmt:
		lt.useExpr(n.Call, st, false)
	case ast.Expr:
		lt.useExpr(n, st, false)
	case ast.Stmt:
		// Conservatively walk anything else (labeled inner stmts etc.).
		ast.Inspect(n, func(x ast.Node) bool {
			if e, ok := x.(ast.Expr); ok {
				lt.useExpr(e, st, false)
				return false
			}
			return true
		})
	}
}

// applyAssign handles RHS uses then LHS definitions.
func (lt *lifetime) applyAssign(a *ast.AssignStmt, st varState) {
	// Multi-result allocation (`conn, err := dial()`): every trackable
	// LHS variable owes, and an error-typed co-result becomes its
	// paired error for assume-node pruning.
	if len(a.Lhs) > 1 && len(a.Rhs) == 1 {
		if call := lt.allocCall(a.Rhs[0]); call != nil && !lt.stale {
			var errVar *types.Var
			var owed []*types.Var
			for _, l := range a.Lhs {
				id, ok := ast.Unparen(l).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if v := lt.varOf(id); v != nil {
					st[v] = vOwes
					if _, ok := lt.allocPos[v]; !ok {
						lt.allocPos[v] = call.Pos()
					}
					owed = append(owed, v)
					continue
				}
				if v := lt.anyVarOf(id); v != nil && isErrorType(v.Type()) {
					errVar = v
				}
			}
			for _, v := range owed {
				if errVar != nil {
					lt.pairErr[v] = errVar
				}
			}
			return
		}
	}
	// 1:1 assignment whose RHS is an alloc: handled as a definition.
	simpleAlloc := len(a.Lhs) == 1 && len(a.Rhs) == 1 && lt.allocCall(a.Rhs[0]) != nil
	if !simpleAlloc {
		for _, r := range a.Rhs {
			lt.useExpr(r, st, true)
		}
	}
	for i, l := range a.Lhs {
		switch tgt := ast.Unparen(l).(type) {
		case *ast.Ident:
			if len(a.Lhs) == len(a.Rhs) {
				lt.applyDef(tgt, a.Rhs[i], st)
			} else {
				lt.clearDef(tgt, st)
			}
		default:
			// Store target (x.f = v, m[k] = v): walk the target
			// non-consumingly; the stored value was consumed above.
			lt.useExpr(l, st, false)
		}
	}
}

// applyAssume prunes obligations using branch polarity.  On a branch
// where a tracked value is known nil there is nothing to release; on a
// branch where an allocation's paired error is known non-nil the
// allocation failed and its obligations clear.
func (lt *lifetime) applyAssume(cond ast.Expr, negate bool, st varState) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return
	}
	op := be.Op.String()
	if op != "==" && op != "!=" {
		return
	}
	isNil := func(x ast.Expr) bool {
		id, ok := ast.Unparen(x).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	var other ast.Expr
	switch {
	case isNil(be.X):
		other = be.Y
	case isNil(be.Y):
		other = be.X
	default:
		return
	}
	id, ok := ast.Unparen(other).(*ast.Ident)
	if !ok {
		return
	}
	// eqHolds: on this edge, `other == nil` is what we know.
	eqHolds := (op == "==") != negate
	if v := lt.varOf(id); v != nil {
		if eqHolds {
			delete(st, v) // the value is nil: no obligation to discharge
		}
		return
	}
	if v := lt.anyVarOf(id); v != nil && isErrorType(v.Type()) && !eqHolds {
		// err != nil holds: allocations paired with err never happened.
		for tracked, e := range lt.pairErr {
			if e == v && st[tracked] == vOwes {
				delete(st, tracked)
			}
		}
	}
}

// anyVarOf resolves an identifier to its variable without the
// trackable filter (used for error co-results).
func (lt *lifetime) anyVarOf(id *ast.Ident) *types.Var {
	info := lt.spec.pkg.Info
	if obj, ok := info.Uses[id].(*types.Var); ok {
		return obj
	}
	if obj, ok := info.Defs[id].(*types.Var); ok {
		return obj
	}
	return nil
}

// applyDef processes `name := rhs` / `name = rhs` for a single pair.
func (lt *lifetime) applyDef(name *ast.Ident, rhs ast.Expr, st varState) {
	if name.Name == "_" {
		return
	}
	v := lt.varOf(name)
	if v == nil {
		return
	}
	if call := lt.allocCall(rhs); call != nil && !lt.stale {
		st[v] = vOwes
		if _, ok := lt.allocPos[v]; !ok {
			lt.allocPos[v] = call.Pos()
		}
		return
	}
	if lt.spec.isAllocExpr != nil && !lt.stale && lt.spec.isAllocExpr(ast.Unparen(rhs)) {
		st[v] = vOwes
		if _, ok := lt.allocPos[v]; !ok {
			lt.allocPos[v] = rhs.Pos()
		}
		return
	}
	delete(st, v) // reassignment: fresh value, old tracking ends
}

// allocCall unwraps rhs to an allocation call (directly, or through a
// type assertion as in f().(*T)).
func (lt *lifetime) allocCall(rhs ast.Expr) *ast.CallExpr {
	switch e := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		if lt.spec.isAlloc != nil && lt.spec.isAlloc(e) {
			return e
		}
	case *ast.TypeAssertExpr:
		if call, ok := ast.Unparen(e.X).(*ast.CallExpr); ok && lt.spec.isAlloc != nil && lt.spec.isAlloc(call) {
			return call
		}
	}
	return nil
}

// useExpr walks an expression.  consume reports whether a tracked
// identifier in this position transfers ownership (call argument,
// return value, store).
func (lt *lifetime) useExpr(e ast.Expr, st varState, consume bool) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.Ident:
		lt.useIdent(e, st, consume)
	case *ast.ParenExpr:
		lt.useExpr(e.X, st, consume)
	case *ast.CallExpr:
		if tv, ok := lt.spec.pkg.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			// A conversion is its operand: P(r).m() hands r to nobody.
			lt.useExpr(e.Args[0], st, consume)
			return
		}
		lt.useCall(e, st)
	case *ast.SelectorExpr:
		// Field read or method value: the base is not consumed, but in
		// stale mode touching a released value's field is a use.
		lt.useExpr(e.X, st, false)
	case *ast.IndexExpr:
		lt.useExpr(e.X, st, false)
		lt.useExpr(e.Index, st, false)
	case *ast.IndexListExpr:
		lt.useExpr(e.X, st, false)
		for _, ix := range e.Indices {
			lt.useExpr(ix, st, false)
		}
	case *ast.SliceExpr:
		lt.useExpr(e.X, st, false)
		lt.useExpr(e.Low, st, false)
		lt.useExpr(e.High, st, false)
		lt.useExpr(e.Max, st, false)
	case *ast.StarExpr:
		lt.useExpr(e.X, st, false)
	case *ast.UnaryExpr:
		// Taking the address lets the value escape.
		lt.useExpr(e.X, st, e.Op.String() == "&")
	case *ast.BinaryExpr:
		// Comparisons (incl. v == nil) and arithmetic never consume,
		// and a nil comparison is not a "use" of a released value.
		if !lt.isNilCompare(e) {
			lt.useExpr(e.X, st, false)
			lt.useExpr(e.Y, st, false)
		}
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				lt.useExpr(kv.Value, st, true)
				continue
			}
			lt.useExpr(elt, st, true)
		}
	case *ast.TypeAssertExpr:
		lt.useExpr(e.X, st, true)
	case *ast.FuncLit:
		lt.useFuncLit(e, st)
	case *ast.KeyValueExpr:
		lt.useExpr(e.Value, st, true)
	}
}

// useCall classifies a call: release helpers discharge their tracked
// arguments, retain helpers create obligations, observers (len, cap,
// copy, delete) consume nothing, and every other call consumes its
// tracked arguments.  Method receivers are never consumed — calling
// inv.Fail(err) does not hand inv off.
func (lt *lifetime) useCall(call *ast.CallExpr, st varState) {
	skip := make(map[ast.Expr]bool)
	if lt.spec.releaseArgs != nil {
		rel := lt.spec.releaseArgs(call)
		for _, arg := range rel {
			skip[arg] = true
		}
		if lt.stale {
			// A release of an already-released value is itself a stale
			// use; check against the state before this call's effect.
			for _, arg := range rel {
				lt.useExpr(arg, st, false)
			}
		}
		for _, arg := range rel {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if v := lt.varOf(id); v != nil {
					st[v] = vDone
					if lt.stale {
						if _, ok := lt.relPos[v]; !ok {
							lt.relPos[v] = call.Pos()
						}
					}
				}
			}
		}
	}
	if !lt.stale && lt.spec.retainArgs != nil {
		for _, arg := range lt.spec.retainArgs(call) {
			skip[arg] = true
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if v := lt.varOf(id); v != nil {
					st[v] = vOwes
					if _, ok := lt.allocPos[v]; !ok {
						lt.allocPos[v] = call.Pos()
					}
				}
			}
		}
	}
	consumeArgs := true
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "len", "cap", "copy", "delete", "print", "println", "min", "max":
			if lt.builtin(id) {
				consumeArgs = false
			}
		case "append":
			// append(dst, v...) stores v: consuming.  Handled below.
		}
	}
	// Walk the function expression: receivers are not consumed.  A
	// method-based releaser (c.release()) lists its receiver in the
	// skip set; its effect was applied above.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if !skip[fun.X] {
			lt.useExpr(fun.X, st, false)
		}
	case *ast.FuncLit:
		lt.useFuncLit(fun, st)
	}
	for _, arg := range call.Args {
		if skip[arg] {
			continue
		}
		lt.useExpr(arg, st, consumeArgs)
	}
}

// useIdent handles a tracked identifier in consuming or observing
// position.
func (lt *lifetime) useIdent(id *ast.Ident, st varState, consume bool) {
	v := lt.varOf(id)
	if v == nil {
		return
	}
	if lt.stale {
		if st[v] == vDone && lt.report != nil {
			lt.report(v, id.Pos())
		}
		return
	}
	if consume && st[v] == vOwes {
		st[v] = vDone
	}
}

// useFuncLit scans a closure body: capturing a tracked variable
// discharges its obligation (the closure may release it later); in
// stale mode closure bodies are ignored (they run at unknown times).
func (lt *lifetime) useFuncLit(lit *ast.FuncLit, st varState) {
	if lt.stale {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v := lt.varOf(id); v != nil && st[v] == vOwes {
				st[v] = vDone
			}
		}
		return true
	})
}

// isNilCompare reports whether e is `x == nil` / `x != nil`.
func (lt *lifetime) isNilCompare(e *ast.BinaryExpr) bool {
	if e.Op.String() != "==" && e.Op.String() != "!=" {
		return false
	}
	isNil := func(x ast.Expr) bool {
		id, ok := ast.Unparen(x).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return isNil(e.X) || isNil(e.Y)
}

// builtin reports whether id resolves to a universe-scope builtin.
func (lt *lifetime) builtin(id *ast.Ident) bool {
	obj := lt.spec.pkg.Info.Uses[id]
	_, ok := obj.(*types.Builtin)
	return ok
}
