package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder derives the program's mutex acquisition graph and reports
// inversions.  A lock class is a (type, field) pair — kernel.Kernel.mu,
// kernel.binding.mu, transput.link.gateMu — or a package-level
// mutex variable; instances are not distinguished, which is exactly
// the granularity at which the kernel's worker-pool/mailbox deadlocks
// live (PR 1's lost wakeup was a cousin of this class).
//
// Per function, an abstract interpretation over the CFG tracks the
// held set: Lock/RLock adds a class (recording held -> acquired edges),
// Unlock/RUnlock removes it, `defer mu.Unlock()` holds to exit.
// Interprocedurally, Acq*(F) — every class F may acquire transitively —
// is a fixpoint over the direct call graph; each call site contributes
// held -> Acq*(callee) edges.  Goroutine spawns (`go f()`) do not
// inherit the spawner's held set.  A cycle between two or more classes
// is reported once per edge pair; self-edges are suppressed (two
// instances of one class, as in lock-coupled neighbor traversal, need
// runtime instance identity this analysis does not model).
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "derive the lock acquisition graph and report ordering inversions",
	Run:  runLockOrder,
}

// lockEdge is one held->acquired observation.
type lockEdge struct {
	from, to string
	pos      token.Pos
	via      string // non-empty when the acquisition happens in a callee
}

func runLockOrder(pass *Pass) error {
	graph := BuildCallGraph(pass.Prog)

	// Pass 1: per-function direct lock behavior.
	perFunc := make(map[*FuncNode]*funcLocksResult)
	for _, node := range graph.Nodes {
		perFunc[node] = analyzeLocks(node, graph)
	}

	// Pass 2: Acq*(F) fixpoint over the call graph.
	acq := make(map[*FuncNode]map[string]bool)
	for node, fl := range perFunc {
		s := make(map[string]bool, len(fl.direct))
		for c := range fl.direct {
			s[c] = true
		}
		acq[node] = s
	}
	for changed := true; changed; {
		changed = false
		for _, node := range graph.Nodes {
			s := acq[node]
			for _, e := range node.Edges {
				if e.Kind == edgeGo {
					continue
				}
				for c := range acq[e.Callee] {
					if !s[c] {
						s[c] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 3: assemble the global edge set.
	var edges []lockEdge
	for node, fl := range perFunc {
		edges = append(edges, fl.edges...)
		for _, cs := range fl.calls {
			for _, h := range cs.held {
				for c := range acq[cs.callee] {
					if c == h {
						continue
					}
					edges = append(edges, lockEdge{from: h, to: c, pos: cs.pos, via: cs.callee.Name})
				}
			}
		}
		_ = node
	}

	// Pass 4: find inversions — unordered pairs locked in both orders.
	type pair struct{ a, b string }
	firstEdge := make(map[pair]lockEdge)
	reported := make(map[pair]bool)
	var diags []lockEdge
	sort.Slice(edges, func(i, j int) bool { return edges[i].pos < edges[j].pos })
	for _, e := range edges {
		if e.from == e.to {
			continue
		}
		p := pair{e.from, e.to}
		if _, ok := firstEdge[p]; !ok {
			firstEdge[p] = e
		}
		rev := pair{e.to, e.from}
		if other, ok := firstEdge[rev]; ok {
			key := p
			if rev.a < p.a {
				key = rev
			}
			if !reported[key] {
				reported[key] = true
				e.via = describeEdge(other, pass)
				diags = append(diags, e)
			}
		}
	}
	for _, d := range diags {
		pass.Reportf(d.pos,
			"lock order inversion: %s acquired while holding %s, but the opposite order exists (%s)",
			d.to, d.from, d.via)
	}
	return nil
}

func describeEdge(e lockEdge, pass *Pass) string {
	pos := pass.Prog.Fset.Position(e.pos)
	if e.via != "" {
		return fmt.Sprintf("%s then %s via %s at %s:%d", e.from, e.to, e.via, pos.Filename, pos.Line)
	}
	return fmt.Sprintf("%s then %s at %s:%d", e.from, e.to, pos.Filename, pos.Line)
}

// callWithHeld records a call site and the lock classes held there.
type callWithHeld struct {
	callee *FuncNode
	held   []string
	pos    token.Pos
}

// lockState is the held set at a CFG point.
type lockState map[string]bool

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// analyzeLocks runs the held-set interpretation over one function.
func analyzeLocks(node *FuncNode, graph *CallGraph) *funcLocksResult {
	res := &funcLocksResult{direct: make(map[string]bool)}
	body := node.Body()
	if body == nil {
		return res
	}
	g := buildCFG(body)
	if g.unsupported {
		// Record direct acquisitions lexically so Acq* stays sound,
		// but skip edge derivation for this function.
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if cls, op := lockClassOf(node, call); cls != "" && (op == "Lock" || op == "RLock") {
					res.direct[cls] = true
				}
			}
			return true
		})
		return res
	}

	in := make(map[*cfgNode]lockState)
	in[g.entry] = lockState{}
	work := []*cfgNode{g.entry}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		out := in[n].clone()
		applyLockNode(node, graph, n, out, nil)
		for _, s := range n.succs {
			st, ok := in[s]
			if !ok {
				in[s] = out.clone()
				work = append(work, s)
				continue
			}
			changed := false
			for c := range out {
				if !st[c] {
					st[c] = true
					changed = true
				}
			}
			if changed {
				work = append(work, s)
			}
		}
	}
	// Final pass with converged states: collect edges and call sites.
	for _, n := range g.nodes {
		st, ok := in[n]
		if !ok {
			continue
		}
		applyLockNode(node, graph, n, st.clone(), res)
	}
	return res
}

type funcLocksResult struct {
	direct map[string]bool
	edges  []lockEdge
	calls  []callWithHeld
}

// applyLockNode interprets one CFG node.  When res is non-nil the pass
// also records edges and call sites (the post-fixpoint reporting walk).
func applyLockNode(fn *FuncNode, graph *CallGraph, n *cfgNode, st lockState, res *funcLocksResult) {
	if n.n == nil || n.kind == nkRange {
		return
	}
	switch s := n.n.(type) {
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to exit: no state
		// change.  Other deferred calls still count as call sites.
		if cls, op := lockClassOf(fn, s.Call); cls != "" && (op == "Unlock" || op == "RUnlock") {
			return
		}
	case *ast.GoStmt:
		// A spawned goroutine does not inherit the spawner's held set.
		return
	}
	ast.Inspect(n.n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		cls, op := lockClassOf(fn, call)
		switch {
		case cls != "" && (op == "Lock" || op == "RLock"):
			if res != nil {
				res.direct[cls] = true
				for h := range st {
					if h != cls {
						res.edges = append(res.edges, lockEdge{from: h, to: cls, pos: call.Pos()})
					}
				}
			}
			st[cls] = true
		case cls != "" && (op == "Unlock" || op == "RUnlock"):
			delete(st, cls)
		default:
			if res != nil {
				if callee := lockResolve(fn, graph, call); callee != nil {
					held := make([]string, 0, len(st))
					for h := range st {
						held = append(held, h)
					}
					sort.Strings(held)
					if len(held) > 0 {
						res.calls = append(res.calls, callWithHeld{callee: callee, held: held, pos: call.Pos()})
					}
				}
			}
		}
		return true
	})
}

// lockResolve finds the callee FuncNode for interprocedural edges.
// Only declared functions resolve here; literals are reached through
// their own graph nodes.
func lockResolve(fn *FuncNode, graph *CallGraph, call *ast.CallExpr) *FuncNode {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := fn.Pkg.Info.Uses[fun].(*types.Func); ok {
			return graph.ByObj[obj]
		}
	case *ast.SelectorExpr:
		if obj, ok := fn.Pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return graph.ByObj[obj]
		}
	}
	return nil
}

// lockClassOf classifies a call as a mutex operation and names its
// lock class.  Returns ("", "") for non-mutex calls.
func lockClassOf(fn *FuncNode, call *ast.CallExpr) (string, string) {
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
	f, ok := fn.Pkg.Info.Uses[sel.Sel].(*types.Func)
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
	// Name the class from the receiver expression.
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		// v.mu.Lock(): class is TypeOf(v).mu
		if tv, ok := fn.Pkg.Info.Types[x.X]; ok {
			if n := namedOrPtr(tv.Type); n != nil && n.Obj().Pkg() != nil {
				return n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + x.Sel.Name, op
			}
		}
		return fn.Pkg.Types.Name() + ".<expr>." + x.Sel.Name, op
	case *ast.Ident:
		if obj, ok := fn.Pkg.Info.Uses[x].(*types.Var); ok {
			if obj.Parent() == fn.Pkg.Types.Scope() {
				return fn.Pkg.Types.Name() + "." + obj.Name(), op
			}
			// Function-local or embedded-receiver mutex: scope the class
			// to the function so unrelated locals never alias.
			return fn.Name + "." + obj.Name(), op
		}
	}
	return "", ""
}
