package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Bottom-up interprocedural summaries over the call graph, for the
// liveness analyzers: whether a callee can fail to terminate, whether
// it parks on a condition variable on the caller's behalf, which locks
// it requires held.  All of them are monotone facts computed bottom-up
// over the call graph's strongly connected components — callees before
// callers, with a fixpoint inside each cycle.

// sccOrder returns the call graph's strongly connected components in
// bottom-up (reverse topological) order: every edge followed by
// `follow` leads from a later component to an earlier one, so a
// summary pass that walks the slice forward sees callees before
// callers.  Tarjan's algorithm emits components in exactly that order.
func sccOrder(g *CallGraph, follow func(CallEdge) bool) [][]*FuncNode {
	index := make(map[*FuncNode]int, len(g.Nodes))
	low := make(map[*FuncNode]int, len(g.Nodes))
	onStack := make(map[*FuncNode]bool)
	var stack []*FuncNode
	var sccs [][]*FuncNode
	next := 0

	// Iterative Tarjan: frame carries the node and the next edge index.
	type frame struct {
		n  *FuncNode
		ei int
	}
	var visit func(root *FuncNode)
	visit = func(root *FuncNode) {
		frames := []frame{{n: root}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			n := f.n
			if f.ei == 0 {
				index[n] = next
				low[n] = next
				next++
				stack = append(stack, n)
				onStack[n] = true
			}
			advanced := false
			for f.ei < len(n.Edges) {
				e := n.Edges[f.ei]
				f.ei++
				if e.Callee == nil || !follow(e) {
					continue
				}
				c := e.Callee
				if _, seen := index[c]; !seen {
					frames = append(frames, frame{n: c})
					advanced = true
					break
				}
				if onStack[c] && index[c] < low[n] {
					low[n] = index[c]
				}
			}
			if advanced {
				continue
			}
			// All edges done: pop, propagate lowlink, maybe emit an SCC.
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].n
				if low[n] < low[p] {
					low[p] = low[n]
				}
			}
			if low[n] == index[n] {
				var comp []*FuncNode
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[m] = false
					comp = append(comp, m)
					if m == n {
						break
					}
				}
				sccs = append(sccs, comp)
			}
		}
	}
	for _, n := range g.Nodes {
		if _, seen := index[n]; !seen {
			visit(n)
		}
	}
	return sccs
}

// funcSummary is the liveness summary for one function.
type funcSummary struct {
	// divergent: some path through the function reaches a region of the
	// CFG from which no exit (return, fall-off-the-end, or panic) is
	// reachable — an infinite loop with no escape — either directly or
	// by calling a divergent function.  Range loops are excluded here
	// (they always have a structural exit edge; whether the ranged
	// channel is ever closed is goroleak's separate check).
	divergent  bool
	divergeAt  token.Pos // the loop or call that diverges
	divergeVia string    // callee chain note, "" when direct

	// waitLike: the function calls sync.Cond.Wait (or a wait-like
	// callee) outside any enclosing loop, i.e. it is a wait wrapper and
	// the predicate-loop obligation moves to its callers.
	waitLike bool
	waitAt   token.Pos
}

// liveSummaries computes funcSummary for every node, bottom-up.
type liveSummaries struct {
	byNode map[*FuncNode]*funcSummary
}

// buildLiveSummaries runs the bottom-up summary passes.  Propagation
// follows plain and deferred calls; `go` edges spawn a different
// goroutine (the spawner does not block on the callee) and `ref` edges
// only create a closure, so neither transmits divergence or wait-ness
// to the enclosing function.
func buildLiveSummaries(g *CallGraph) *liveSummaries {
	s := &liveSummaries{byNode: make(map[*FuncNode]*funcSummary, len(g.Nodes))}
	for _, n := range g.Nodes {
		s.byNode[n] = &funcSummary{}
	}
	followSync := func(e CallEdge) bool { return e.Kind == edgeCall || e.Kind == edgeDefer }
	order := sccOrder(g, followSync)
	for _, comp := range order {
		// Structural facts first, then a fixpoint over the component
		// (cycles inside an SCC can feed facts to each other).
		for _, n := range comp {
			s.structural(n)
		}
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				if s.propagate(n, followSync) {
					changed = true
				}
			}
		}
	}
	return s
}

// structural fills in the facts visible from one function's own body.
func (s *liveSummaries) structural(n *FuncNode) {
	sum := s.byNode[n]
	body := n.Body()
	if body == nil {
		return
	}
	g := buildCFG(body)
	if g.unsupported {
		// goto/labeled control flow: assume the worst for divergence is
		// wrong (no such function exists in the module), assume the best
		// and let the fixture harness keep it that way.
		return
	}
	if pos, ok := divergentRegion(g); ok {
		sum.divergent = true
		sum.divergeAt = pos
	}
	// Direct cond.Wait sites outside any loop make the function
	// wait-like.
	forEachCall(body, func(call *ast.CallExpr, inLoop bool) {
		if inLoop || sum.waitLike {
			return
		}
		if isCondMethod(n.Pkg.Info, call, "Wait") {
			sum.waitLike = true
			sum.waitAt = call.Pos()
		}
	})
}

// propagate pulls callee facts into n; reports whether n changed.
func (s *liveSummaries) propagate(n *FuncNode, follow func(CallEdge) bool) bool {
	sum := s.byNode[n]
	changed := false
	body := n.Body()
	if body == nil {
		return false
	}
	for _, e := range n.Edges {
		if !follow(e) || e.Callee == nil {
			continue
		}
		cs := s.byNode[e.Callee]
		if cs.divergent && !sum.divergent {
			sum.divergent = true
			sum.divergeAt = e.Pos
			sum.divergeVia = e.Callee.Name
			changed = true
		}
	}
	if !sum.waitLike {
		forEachCall(body, func(call *ast.CallExpr, inLoop bool) {
			if inLoop || sum.waitLike {
				return
			}
			if callee := s.resolve(n, call); callee != nil && s.byNode[callee].waitLike {
				sum.waitLike = true
				sum.waitAt = call.Pos()
				changed = true
			}
		})
	}
	return changed
}

// resolve maps a call in n's body to its FuncNode, when direct.
func (s *liveSummaries) resolve(n *FuncNode, call *ast.CallExpr) *FuncNode {
	for _, e := range n.Edges {
		if e.Pos == call.Pos() && (e.Kind == edgeCall || e.Kind == edgeDefer) {
			return e.Callee
		}
	}
	return nil
}

// divergentRegion reports whether g contains a node reachable from the
// entry that cannot reach any exit (return, end, or panic) — an
// inescapable loop — and returns a position inside the region.
func divergentRegion(g *funcCFG) (token.Pos, bool) {
	if len(g.nodes) == 0 {
		return token.NoPos, false
	}
	// Backward reachability from every exit and panic node.
	canExit := make([]bool, len(g.nodes))
	var work []*cfgNode
	mark := func(n *cfgNode) {
		if !canExit[n.idx] {
			canExit[n.idx] = true
			work = append(work, n)
		}
	}
	for _, n := range g.nodes {
		if n.kind == nkReturn || n.kind == nkEnd || n.kind == nkPanic {
			mark(n)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range n.preds {
			mark(p)
		}
	}
	// Forward reachability from the entry.
	reach := make([]bool, len(g.nodes))
	work = work[:0]
	reach[g.entry.idx] = true
	work = append(work, g.entry)
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, su := range n.succs {
			if !reach[su.idx] {
				reach[su.idx] = true
				work = append(work, su)
			}
		}
	}
	for _, n := range g.nodes {
		if reach[n.idx] && !canExit[n.idx] {
			pos := n.pos()
			return pos, true
		}
	}
	return token.NoPos, false
}

// pos returns a best-effort source position for a CFG node (synthetic
// joins walk to a positioned neighbor).
func (n *cfgNode) pos() token.Pos {
	if n.n != nil {
		return n.n.Pos()
	}
	if n.cond != nil {
		return n.cond.Pos()
	}
	for _, su := range n.succs {
		if su.n != nil {
			return su.n.Pos()
		}
	}
	for _, p := range n.preds {
		if p.n != nil {
			return p.n.Pos()
		}
	}
	return token.NoPos
}

// forEachCall walks body (not entering nested function literals) and
// reports every call expression together with whether it sits inside a
// for/range loop of this body.  Calls spawned with `go` are skipped:
// whatever they wait on happens in the new goroutine, not here.
func forEachCall(body *ast.BlockStmt, fn func(call *ast.CallExpr, inLoop bool)) {
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			return
		case *ast.GoStmt:
			// Still visit the spawn's arguments (they evaluate here),
			// but not the spawned call itself.
			for _, a := range n.Call.Args {
				walk(a, inLoop)
			}
			return
		case *ast.ForStmt:
			walkChildren(n, func(c ast.Node) { walk(c, true) })
			return
		case *ast.RangeStmt:
			walkChildren(n, func(c ast.Node) { walk(c, true) })
			return
		case *ast.CallExpr:
			fn(n, inLoop)
		}
		walkChildren(n, func(c ast.Node) { walk(c, inLoop) })
	}
	for _, s := range body.List {
		walk(s, false)
	}
}

// walkChildren applies fn to the immediate children of n.
func walkChildren(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}

// isCondMethod reports whether call is sync.Cond's method name
// (Wait/Signal/Broadcast).
func isCondMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	f, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamedType(sig.Recv().Type(), "sync", "Cond")
}

// condVarOf identifies the condition-variable storage behind the
// receiver of a cond method call: the field or variable object, which
// is stable across promoted-field access (channel.cond and
// chanCore.cond resolve to the same *types.Var).  Returns nil when the
// receiver is not a simple field/var reference.
func condVarOf(info *types.Info, call *ast.CallExpr) *types.Var {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return storageVar(info, sel.X)
}

// storageVar resolves expr to the variable or struct field it names.
func storageVar(info *types.Info, expr ast.Expr) *types.Var {
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return v
		}
		if v, ok := info.Defs[x].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v
			}
		}
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			return v
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return storageVar(info, x.X)
		}
	}
	return nil
}

// varDisplay renders a storage var for diagnostics: package.name with
// the declaring file attached when the bare name is ambiguous (half
// the module's mutexes are called "mu").
func varDisplay(prog *Program, v *types.Var) string {
	pkg := ""
	if v.Pkg() != nil {
		pkg = v.Pkg().Name() + "."
	}
	pos := prog.Fset.Position(v.Pos())
	if pos.IsValid() {
		return fmt.Sprintf("%s%s(%s:%d)", pkg, v.Name(), shortFile(pos.Filename), pos.Line)
	}
	return pkg + v.Name()
}

// shortFile trims a position's filename to its last two path elements
// for compact diagnostics.
func shortFile(name string) string {
	slash := 0
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' {
			slash++
			if slash == 2 {
				return name[i+1:]
			}
		}
	}
	return name
}
