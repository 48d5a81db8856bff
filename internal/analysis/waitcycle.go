package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// WaitCycle unifies the module's three blocking primitives — mutexes,
// sync.Cond wait/signal pairs, and unbuffered channels — into one
// heterogeneous wait-for graph and reports the two hazards no test can
// produce on demand:
//
//	W3  Signal/Broadcast must hold the cond's associated mutex (the
//	    one it was made with, its L).  Unlike Wait, the runtime does
//	    not enforce this; an unlocked signal can slip between a
//	    waiter's predicate check and its park — the classic lost
//	    wakeup.  The obligation crosses function boundaries: a helper
//	    that signals without the lock is fine if every caller holds
//	    it.
//	W4  cycles in the combined wait-for graph: locks taken in
//	    opposite orders (of any length: A→B→C→A), a lock held while
//	    blocking on an unbuffered channel whose peer needs that lock,
//	    a cond waiter holding an extra lock its signaler needs, and
//	    every mixed form.  Condition variables and their own
//	    associated mutex never form an edge (Wait releases it).
//
// Identity is by storage object (*types.Var), so promoted fields
// unify (channel.cond is chanCore.cond) and all instances of a struct
// share their mutex field's node; two instances of one lock make a
// self-edge, which no cycle needs.  Must-held sets (intersection at
// joins) feed W3 and the channel/cond edges, so neither reports a path
// that provably holds the lock.  May-held sets (union) feed the
// program-wide lock-order edges, which also run from the locks held at
// a call to every lock the callee may take, transitively, except
// through `go`.
//
// A Wait outside its predicate loop and a cond nobody signals are left
// to the runtime: the first wakes to a false predicate and the second
// never wakes, and either fails the record's and the gate's tests
// (TestTwoWaitersOnePut, TestInPortPullsROStageThroughProxy) or leaves
// a goroutine behind a teardown baseline (quiesce.Baseline).
var WaitCycle = &Analyzer{
	Name: "waitcycle",
	Doc:  "cond signals under their mutex, lock-order cycles and mixed mutex/cond/channel wait cycles",
	Run:  runWaitCycle,
}

func runWaitCycle(pass *Pass) error {
	graph := BuildCallGraph(pass.Prog)

	assoc := condAssociations(pass.Prog)
	unbuffered := unbufferedChans(pass.Prog)

	// Per-function facts: wait/signal/chan-op sites and lock
	// acquisitions with their held sets, plus resolved call sites for
	// obligation and lock-order propagation — callees first, so that a
	// lock a callee returns holding counts as taken at the call.
	facts := make(map[*FuncNode]*waitFacts, len(graph.Nodes))
	for _, scc := range sccOrder(graph, func(e CallEdge) bool { return e.Kind != edgeGo }) {
		for _, n := range scc {
			facts[n] = analyzeWaitFacts(n, graph, facts)
		}
	}

	inCalls := make(map[*FuncNode]int)
	inSpawns := make(map[*FuncNode][]token.Pos)
	for _, n := range graph.Nodes {
		for _, e := range n.Edges {
			switch e.Kind {
			case edgeCall, edgeDefer:
				inCalls[e.Callee]++
			case edgeGo:
				inSpawns[e.Callee] = append(inSpawns[e.Callee], e.Pos)
			}
		}
	}

	reportW3(pass, graph, facts, assoc, inCalls, inSpawns)
	reportW4(pass, graph, facts, assoc, unbuffered)
	return nil
}

// ---------------------------------------------------------------------
// W3: signal under the associated mutex, with obligations crossing
// function boundaries bottom-up.

func reportW3(pass *Pass, graph *CallGraph, facts map[*FuncNode]*waitFacts, assoc map[*types.Var]*types.Var, inCalls map[*FuncNode]int, inSpawns map[*FuncNode][]token.Pos) {
	// required[F][M] = first site in F that needs M held on entry.
	type need struct {
		pos  token.Pos
		cond *types.Var
	}
	required := make(map[*FuncNode]map[*types.Var]need)
	for _, n := range graph.Nodes {
		req := make(map[*types.Var]need)
		for _, s := range facts[n].signals {
			m, ok := assoc[s.cond]
			if !ok {
				continue // cond never made with a mutex in-program
			}
			if !s.held[m] {
				if _, dup := req[m]; !dup {
					req[m] = need{pos: s.pos, cond: s.cond}
				}
			}
		}
		required[n] = req
	}
	// Fixpoint: a caller inherits a callee's requirement unless the
	// call site provably holds the mutex.
	for changed := true; changed; {
		changed = false
		for _, n := range graph.Nodes {
			for _, c := range facts[n].calls {
				for m, nd := range required[c.callee] {
					if c.held[m] {
						continue
					}
					if _, ok := required[n][m]; !ok {
						required[n][m] = need{pos: c.pos, cond: nd.cond}
						changed = true
					}
				}
			}
		}
	}
	for _, n := range graph.Nodes {
		if !liveScope(n.Pkg.Path) || len(required[n]) == 0 {
			continue
		}
		top := inCalls[n] == 0
		spawned := len(inSpawns[n]) > 0
		if !top && !spawned {
			continue // some caller may provide the lock; judged there
		}
		needs := make([]*types.Var, 0, len(required[n]))
		for m := range required[n] {
			needs = append(needs, m)
		}
		sort.Slice(needs, func(i, j int) bool { return required[n][needs[i]].pos < required[n][needs[j]].pos })
		for _, m := range needs {
			nd := required[n][m]
			pass.Reportf(nd.pos, "cond %s signaled without holding its associated mutex %s (lost-wakeup hazard)",
				varDisplay(pass.Prog, nd.cond), varDisplay(pass.Prog, m))
		}
	}
}

// ---------------------------------------------------------------------
// W4: wait-for cycles, lock-only and mixed.

// wfNode is one resource in the heterogeneous wait-for graph.
type wfNode struct {
	kind string // "lock", "send", "recv", "cond"
	v    *types.Var
}

// wfEdge is one may-wait-for edge.
type wfEdge struct {
	to  wfNode
	pos token.Pos
}

func reportW4(pass *Pass, graph *CallGraph, facts map[*FuncNode]*waitFacts, assoc map[*types.Var]*types.Var, unbuffered map[*types.Var]bool) {
	adj := make(map[wfNode][]wfEdge)
	addEdge := func(from, to wfNode, pos token.Pos) {
		adj[from] = append(adj[from], wfEdge{to: to, pos: pos})
	}

	// Peer lock requirements per channel/cond, collected program-wide.
	sendHeld := make(map[*types.Var]map[*types.Var]token.Pos) // locks held at send sites of C
	recvHeld := make(map[*types.Var]map[*types.Var]token.Pos) // locks held at recv/close sites of C
	sigHeld := make(map[*types.Var]map[*types.Var]token.Pos)  // extra locks held at signal sites of D
	record := func(m map[*types.Var]map[*types.Var]token.Pos, key, lock *types.Var, pos token.Pos) {
		if m[key] == nil {
			m[key] = make(map[*types.Var]token.Pos)
		}
		if _, ok := m[key][lock]; !ok {
			m[key][lock] = pos
		}
	}
	for _, n := range graph.Nodes {
		for _, op := range facts[n].chanOps {
			if !unbuffered[op.ch] {
				continue
			}
			for m := range op.held {
				if op.send {
					record(sendHeld, op.ch, m, op.pos)
				} else {
					record(recvHeld, op.ch, m, op.pos)
				}
			}
		}
		for _, s := range facts[n].signals {
			am := assoc[s.cond]
			for m := range s.held {
				if m != am {
					record(sigHeld, s.cond, m, s.pos)
				}
			}
		}
	}

	// Lock order: each acquisition waits for every lock that may be held
	// there, and a call waits for every lock its callee may take.
	acq := lockAcquisitions(graph, facts)
	for _, n := range graph.Nodes {
		for _, a := range facts[n].acquires {
			for h := range a.mayHeld {
				addEdge(wfNode{kind: "lock", v: h}, wfNode{kind: "lock", v: a.lock}, a.pos)
			}
		}
		for _, c := range facts[n].calls {
			for h := range c.mayHeld {
				for l := range acq[c.callee] {
					addEdge(wfNode{kind: "lock", v: h}, wfNode{kind: "lock", v: l}, c.pos)
				}
			}
		}
	}

	for _, n := range graph.Nodes {
		if !liveScope(n.Pkg.Path) {
			continue
		}
		for _, op := range facts[n].chanOps {
			if !unbuffered[op.ch] {
				continue
			}
			var opNode wfNode
			var peer map[*types.Var]token.Pos
			if op.send {
				opNode = wfNode{kind: "send", v: op.ch}
				peer = recvHeld[op.ch]
			} else {
				opNode = wfNode{kind: "recv", v: op.ch}
				peer = sendHeld[op.ch]
			}
			for m := range op.held {
				addEdge(wfNode{kind: "lock", v: m}, opNode, op.pos)
			}
			for m, pos := range peer {
				addEdge(opNode, wfNode{kind: "lock", v: m}, pos)
			}
		}
		for _, w := range facts[n].waits {
			if w.cond == nil {
				continue
			}
			am := assoc[w.cond]
			cn := wfNode{kind: "cond", v: w.cond}
			for m := range w.held {
				if m == am {
					continue // Wait releases the associated mutex
				}
				addEdge(wfNode{kind: "lock", v: m}, cn, w.pos)
			}
			for m, pos := range sigHeld[w.cond] {
				if m == am {
					continue
				}
				addEdge(cn, wfNode{kind: "lock", v: m}, pos)
			}
		}
	}

	// Cycle detection: report every SCC with two or more nodes, once.
	comps := wfSCCs(adj)
	for _, comp := range comps {
		if len(comp) < 2 {
			continue
		}
		inComp := make(map[wfNode]bool, len(comp))
		for _, nd := range comp {
			inComp[nd] = true
		}
		sort.Slice(comp, func(i, j int) bool {
			return wfDisplay(pass.Prog, comp[i]) < wfDisplay(pass.Prog, comp[j])
		})
		// Report where the cycle closes: at the latest of its nodes'
		// first edges into it (for two locks, the second order written).
		var at token.Pos
		what := "lock order cycle"
		var parts []string
		for _, nd := range comp {
			parts = append(parts, wfDisplay(pass.Prog, nd))
			if nd.kind != "lock" {
				what = "possible wait cycle"
			}
			first := token.NoPos
			for _, e := range adj[nd] {
				if inComp[e.to] && e.to != nd && (first == token.NoPos || e.pos < first) {
					first = e.pos
				}
			}
			at = max(at, first)
		}
		pass.Reportf(at, "%s between %s", what, strings.Join(parts, " <-> "))
	}
}

// lockAcquisitions gives each function the locks it may take: its own,
// and those of every function it calls, defers or creates, but not of
// one it spawns with `go`, which starts with nothing held.
func lockAcquisitions(graph *CallGraph, facts map[*FuncNode]*waitFacts) map[*FuncNode]map[*types.Var]bool {
	acq := make(map[*FuncNode]map[*types.Var]bool, len(graph.Nodes))
	for _, n := range graph.Nodes {
		s := make(map[*types.Var]bool)
		for _, a := range facts[n].acquires {
			s[a.lock] = true
		}
		acq[n] = s
	}
	for changed := true; changed; {
		changed = false
		for _, n := range graph.Nodes {
			for _, e := range n.Edges {
				if e.Kind == edgeGo {
					continue
				}
				for l := range acq[e.Callee] {
					if !acq[n][l] {
						acq[n][l] = true
						changed = true
					}
				}
			}
		}
	}
	return acq
}

func wfDisplay(prog *Program, n wfNode) string {
	return fmt.Sprintf("%s %s", n.kind, varDisplay(prog, n.v))
}

// wfSCCs runs Tarjan over the wait-for graph.
func wfSCCs(adj map[wfNode][]wfEdge) [][]wfNode {
	index := make(map[wfNode]int)
	low := make(map[wfNode]int)
	onStack := make(map[wfNode]bool)
	var stack []wfNode
	var comps [][]wfNode
	next := 0
	var nodes []wfNode
	for n := range adj {
		nodes = append(nodes, n)
	}
	var strong func(n wfNode)
	strong = func(n wfNode) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, e := range adj[n] {
			if _, seen := index[e.to]; !seen {
				strong(e.to)
				if low[e.to] < low[n] {
					low[n] = low[e.to]
				}
			} else if onStack[e.to] && index[e.to] < low[n] {
				low[n] = index[e.to]
			}
		}
		if low[n] == index[n] {
			var comp []wfNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				comp = append(comp, m)
				if m == n {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}
	return comps
}

// ---------------------------------------------------------------------
// Fact collection.

// condAssociations maps each condition variable's storage object to
// the mutex object it was made with: sync.NewCond(&m), or a value
// sync.Cond{L: &m} (or its address).  A cond is recognized where it is
// assigned, declared, or the value of a keyed field in an enclosing
// struct literal; the module makes every cond one of these ways.
func condAssociations(prog *Program) map[*types.Var]*types.Var {
	assoc := make(map[*types.Var]*types.Var)
	note := func(pkg *Package, lhs ast.Expr, rhs ast.Expr) {
		m := condMutex(pkg.Info, rhs)
		if m == nil {
			return
		}
		cv := storageVar(pkg.Info, lhs)
		mv := storageVar(pkg.Info, m)
		if cv != nil && mv != nil {
			assoc[cv] = mv
		}
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) == len(n.Rhs) {
						for i := range n.Lhs {
							note(pkg, n.Lhs[i], n.Rhs[i])
						}
					}
				case *ast.ValueSpec:
					for i := range n.Names {
						if i < len(n.Values) {
							note(pkg, n.Names[i], n.Values[i])
						}
					}
				case *ast.CompositeLit:
					t := pkg.Info.TypeOf(n)
					if t == nil {
						break
					}
					if _, ok := t.Underlying().(*types.Struct); !ok {
						break
					}
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							note(pkg, kv.Key, kv.Value)
						}
					}
				}
				return true
			})
		}
	}
	return assoc
}

// condMutex returns the mutex expression a cond is made with, or nil
// when expr makes no cond: the argument of sync.NewCond, or the L of a
// sync.Cond literal, itself or its address.
func condMutex(info *types.Info, expr ast.Expr) ast.Expr {
	expr = ast.Unparen(expr)
	if u, ok := expr.(*ast.UnaryExpr); ok && u.Op == token.AND {
		expr = ast.Unparen(u.X)
	}
	switch x := expr.(type) {
	case *ast.CallExpr:
		if len(x.Args) == 1 && isPkgFunc(info, x, func(p string) bool { return p == "sync" }, "NewCond") {
			return x.Args[0]
		}
	case *ast.CompositeLit:
		if t := info.TypeOf(x); t == nil || !isNamedType(t, "sync", "Cond") {
			return nil
		}
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "L" {
					return kv.Value
				}
			}
		}
	}
	return nil
}

// unbufferedChans maps channel storage objects that are provably
// unbuffered: every make site seen for the object either omits the
// capacity or passes a literal 0.  Objects with no make site, or with
// any non-literal capacity, are treated as buffered (no edges) — the
// conservative direction for a cycle report.
func unbufferedChans(prog *Program) map[*types.Var]bool {
	verdict := make(map[*types.Var]bool) // true = unbuffered so far
	seen := make(map[*types.Var]bool)
	noteVar := func(pkg *Package, v *types.Var, rhs ast.Expr) {
		if v == nil {
			return
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			return
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "make" {
			return
		}
		if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
			return
		}
		tv, ok := pkg.Info.Types[call]
		if !ok {
			return
		}
		if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
			return
		}
		unbuf := len(call.Args) < 2
		if !unbuf {
			if lit, ok := ast.Unparen(call.Args[1]).(*ast.BasicLit); ok && lit.Value == "0" {
				unbuf = true
			}
		}
		if !seen[v] {
			seen[v] = true
			verdict[v] = unbuf
		} else if !unbuf {
			verdict[v] = false
		}
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) == len(n.Rhs) {
						for i := range n.Lhs {
							noteVar(pkg, storageVar(pkg.Info, n.Lhs[i]), n.Rhs[i])
						}
					}
				case *ast.ValueSpec:
					for i := range n.Names {
						if i < len(n.Values) {
							noteVar(pkg, storageVar(pkg.Info, n.Names[i]), n.Values[i])
						}
					}
				case *ast.CompositeLit:
					// &pipe{ch: make(chan int)} initialises the field
					// without an AssignStmt; the key resolves to the
					// field var directly.
					for _, elt := range n.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						key, ok := kv.Key.(*ast.Ident)
						if !ok {
							continue
						}
						if fv, ok := pkg.Info.Uses[key].(*types.Var); ok && fv.IsField() {
							noteVar(pkg, fv, kv.Value)
						}
					}
				}
				return true
			})
		}
	}
	out := make(map[*types.Var]bool)
	for v, u := range verdict {
		if u {
			out[v] = true
		}
	}
	return out
}

type condSite struct {
	cond *types.Var
	pos  token.Pos
	held map[*types.Var]bool
}

type chanOpSite struct {
	ch   *types.Var
	send bool
	pos  token.Pos
	held map[*types.Var]bool
}

type waitCall struct {
	callee  *FuncNode
	pos     token.Pos
	held    map[*types.Var]bool
	mayHeld map[*types.Var]bool
}

// lockSite is one Lock/RLock call and the locks that may be held there.
type lockSite struct {
	lock    *types.Var
	pos     token.Pos
	mayHeld map[*types.Var]bool
}

type waitFacts struct {
	waits    []condSite
	signals  []condSite
	chanOps  []chanOpSite
	calls    []waitCall
	acquires []lockSite
	// handsOff: the locks held at every `return …, true` and at no other
	// return — an accessor's (`c, ok := r.lock()`).  Its callers hold
	// them from the call on, except where a branch learns ok is false.
	handsOff map[*types.Var]bool
}

// analyzeWaitFacts interprets one function's CFG with a must-held
// mutex-object set (intersection at joins) and a may-held one (union)
// and records every cond operation, blocking channel operation, lock
// acquisition and resolved call together with the locks held there.
// Channel operations inside select communication clauses are
// non-blocking by construction and skipped.  facts holds the callees
// already analysed, whose handsOff locks a call acquires.
func analyzeWaitFacts(node *FuncNode, graph *CallGraph, facts map[*FuncNode]*waitFacts) *waitFacts {
	res := &waitFacts{}
	body := node.Body()
	if body == nil {
		return res
	}

	// Select communication clauses never block alone; collect their
	// positions to skip.
	selComm := make(map[token.Pos]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && node.Lit != lit {
			return false
		}
		if sel, ok := n.(*ast.SelectStmt); ok {
			for _, cc := range sel.Body.List {
				if comm := cc.(*ast.CommClause); comm.Comm != nil {
					selComm[comm.Comm.Pos()] = true
				}
			}
		}
		return true
	})

	g := buildCFG(body)
	if g.unsupported {
		return res
	}

	// held is the lock state at a CFG point: must (intersection at
	// joins) and may (union).
	type held struct{ must, may map[*types.Var]bool }
	clone := func(s held) held { return held{maps.Clone(s.must), maps.Clone(s.may)} }
	guards := make(map[types.Object]map[*types.Var]bool) // an accessor's ok → its locks
	apply := func(n *cfgNode, st held, sink *waitFacts) {
		if n.kind == nkAssume { // on the branch where an accessor's ok is false
			cond, negate := ast.Unparen(n.cond), n.negate
			if not, ok := cond.(*ast.UnaryExpr); ok && not.Op == token.NOT {
				cond, negate = ast.Unparen(not.X), !negate
			}
			if id, ok := cond.(*ast.Ident); ok && negate {
				for v := range guards[node.Pkg.Info.ObjectOf(id)] {
					delete(st.must, v)
					delete(st.may, v)
				}
			}
			return
		}
		if n.n == nil || n.kind == nkRange {
			return
		}
		if _, ok := n.n.(*ast.GoStmt); ok {
			return // a spawned goroutine starts with nothing held
		}
		if d, ok := n.n.(*ast.DeferStmt); ok {
			if v, op := mutexOpVar(node.Pkg.Info, d.Call); v != nil && (op == "Unlock" || op == "RUnlock") {
				return // deferred unlock: held to exit
			}
		}
		skipComm := selComm[n.n.Pos()]
		ast.Inspect(n.n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SendStmt:
				if !skipComm {
					if v := storageVar(node.Pkg.Info, x.Chan); v != nil && sink != nil {
						sink.chanOps = append(sink.chanOps, chanOpSite{ch: v, send: true, pos: x.Pos(), held: maps.Clone(st.must)})
					}
				}
			case *ast.UnaryExpr:
				if x.Op == token.ARROW && !skipComm {
					if v := storageVar(node.Pkg.Info, x.X); v != nil && sink != nil {
						sink.chanOps = append(sink.chanOps, chanOpSite{ch: v, send: false, pos: x.Pos(), held: maps.Clone(st.must)})
					}
				}
			case *ast.CallExpr:
				if v, op := mutexOpVar(node.Pkg.Info, x); v != nil {
					switch op {
					case "Lock", "RLock":
						if sink != nil {
							sink.acquires = append(sink.acquires, lockSite{lock: v, pos: x.Pos(), mayHeld: maps.Clone(st.may)})
						}
						st.must[v], st.may[v] = true, true
					case "Unlock", "RUnlock":
						delete(st.must, v)
						delete(st.may, v)
					}
					return true
				}
				info := node.Pkg.Info
				switch {
				case isCondMethod(info, x, "Wait"):
					if sink != nil {
						sink.waits = append(sink.waits, condSite{cond: condVarOf(info, x), pos: x.Pos(), held: maps.Clone(st.must)})
					}
				case isCondMethod(info, x, "Signal"), isCondMethod(info, x, "Broadcast"):
					if cv := condVarOf(info, x); cv != nil && sink != nil {
						sink.signals = append(sink.signals, condSite{cond: cv, pos: x.Pos(), held: maps.Clone(st.must)})
					}
				default:
					callee := resolveCallee(node.Pkg, graph, nil, x)
					if callee == nil {
						break
					}
					if sink != nil {
						sink.calls = append(sink.calls, waitCall{callee: callee, pos: x.Pos(), held: maps.Clone(st.must), mayHeld: maps.Clone(st.may)})
					}
					if f := facts[callee]; f != nil && f.handsOff != nil {
						for v := range f.handsOff {
							st.must[v], st.may[v] = true, true
						}
						if as, ok := n.n.(*ast.AssignStmt); ok {
							if id, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident); ok {
								guards[node.Pkg.Info.ObjectOf(id)] = f.handsOff
							}
						}
					}
				}
			}
			return true
		})
	}

	// Fixpoint: first visit copies, revisits intersect must and unite may.
	in := make(map[*cfgNode]held)
	in[g.entry] = held{map[*types.Var]bool{}, map[*types.Var]bool{}}
	work := []*cfgNode{g.entry}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		out := clone(in[n])
		apply(n, out, nil)
		for _, s := range n.succs {
			st, ok := in[s]
			if !ok {
				in[s] = clone(out)
				work = append(work, s)
				continue
			}
			changed := false
			for v := range st.must {
				if !out.must[v] {
					delete(st.must, v)
					changed = true
				}
			}
			for v := range out.may {
				if !st.may[v] {
					st.may[v] = true
					changed = true
				}
			}
			if changed {
				work = append(work, s)
			}
		}
	}
	var onTrue map[*types.Var]bool      // must-held at every `return …, true`
	others := make(map[*types.Var]bool) // may-held at any other return
	for _, n := range g.nodes {
		st, ok := in[n]
		if !ok {
			continue
		}
		out := clone(st)
		apply(n, out, res)
		if ret, ok := n.n.(*ast.ReturnStmt); ok && len(ret.Results) > 0 && types.ExprString(ret.Results[len(ret.Results)-1]) == "true" {
			if onTrue == nil {
				onTrue = out.must
			}
			maps.DeleteFunc(onTrue, func(v *types.Var, _ bool) bool { return !out.must[v] })
		} else if ok {
			maps.Copy(others, out.may)
		}
	}
	if len(g.defers) == 0 { // a deferred Unlock runs after the return
		maps.DeleteFunc(onTrue, func(v *types.Var, _ bool) bool { return others[v] })
		res.handsOff = onTrue
	}
	return res
}

// mutexOpVar classifies a call as a mutex Lock/Unlock (or RW variant)
// and returns the mutex's storage object.
func mutexOpVar(info *types.Info, call *ast.CallExpr) (*types.Var, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, ""
	}
	f, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, ""
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, ""
	}
	recvT := sig.Recv().Type()
	if !isNamedType(recvT, "sync", "Mutex") && !isNamedType(recvT, "sync", "RWMutex") {
		return nil, ""
	}
	return storageVar(info, sel.X), op
}
