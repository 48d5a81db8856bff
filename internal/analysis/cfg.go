package analysis

import (
	"go/ast"
	"go/token"
)

// A hand-rolled statement-level control-flow graph.  Each node holds
// one "atomic" piece of a function body — a simple statement, or the
// condition/tag expression of a compound statement — so dataflow
// clients can ast.Inspect node.N without ever re-visiting nested
// statements.  Labeled branches and goto mark the graph unsupported
// (no function in this module uses them); analyses skip such
// functions rather than guess.  Its one client is waitcycle's held-lock
// dataflow, which also reads the assume nodes and the defer list.

type nodeKind int

const (
	nkStmt   nodeKind = iota // simple statement
	nkExpr                   // condition / tag / range operand
	nkRange                  // RangeStmt head: defines Key/Value from X
	nkReturn                 // ReturnStmt
	nkPanic                  // call to panic: path ends, not a normal exit
	nkEnd                    // synthetic fall-off-the-end exit
	nkJoin                   // synthetic empty node (loop heads, select heads)
	nkAssume                 // branch polarity: cond holds (or its negation)
)

type cfgNode struct {
	kind  nodeKind
	n     ast.Node // statement or expression for this node (nil for join/end)
	rng   *ast.RangeStmt
	succs []*cfgNode
	preds []*cfgNode
	idx   int
	// Assume nodes record which way the enclosing If branched: cond is
	// the condition expression and negate is true on the else edge.
	// n stays nil so clients that Inspect node.N never re-visit the
	// condition.
	cond   ast.Expr
	negate bool
}

type funcCFG struct {
	entry *cfgNode
	nodes []*cfgNode
	// defers lists every deferred call in the body, in source order.
	defers []*ast.CallExpr
	// unsupported is set when the body uses goto or labeled branches.
	unsupported bool
}

type loopFrame struct {
	head     *cfgNode   // continue target (nil inside switch/select frames)
	breaks   []*cfgNode // nodes whose successor is the statement after the loop
	isSwitch bool
}

type cfgBuilder struct {
	g     *funcCFG
	loops []*loopFrame
}

// buildCFG constructs the CFG for a function body.  A nil body (a
// declaration without implementation) yields an empty, supported CFG.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	g := &funcCFG{}
	b := &cfgBuilder{g: g}
	entry := b.newNode(nkJoin, nil)
	g.entry = entry
	if body == nil {
		return g
	}
	// Pre-scan for constructs the builder does not model.
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.BranchStmt:
			if s.Label != nil || s.Tok == token.GOTO {
				g.unsupported = true
			}
		case *ast.FuncLit:
			return false // nested function bodies get their own CFGs
		}
		return true
	})
	if g.unsupported {
		return g
	}
	frontier := b.buildStmts(body.List, []*cfgNode{entry})
	if len(frontier) > 0 {
		b.link(frontier, b.newNode(nkEnd, nil))
	}
	return g
}

func (b *cfgBuilder) newNode(k nodeKind, n ast.Node) *cfgNode {
	nd := &cfgNode{kind: k, n: n, idx: len(b.g.nodes)}
	b.g.nodes = append(b.g.nodes, nd)
	return nd
}

func (b *cfgBuilder) link(from []*cfgNode, to *cfgNode) {
	for _, f := range from {
		f.succs = append(f.succs, to)
		to.preds = append(to.preds, f)
	}
}

// seq appends a node for n to the frontier and returns the new
// frontier.
func (b *cfgBuilder) seq(frontier []*cfgNode, k nodeKind, n ast.Node) ([]*cfgNode, *cfgNode) {
	nd := b.newNode(k, n)
	b.link(frontier, nd)
	return []*cfgNode{nd}, nd
}

func (b *cfgBuilder) buildStmts(list []ast.Stmt, frontier []*cfgNode) []*cfgNode {
	for _, s := range list {
		frontier = b.buildStmt(s, frontier)
		if len(frontier) == 0 {
			break // unreachable code after return/branch
		}
	}
	return frontier
}

func (b *cfgBuilder) buildStmt(s ast.Stmt, frontier []*cfgNode) []*cfgNode {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.buildStmts(s.List, frontier)

	case *ast.IfStmt:
		if s.Init != nil {
			frontier, _ = b.seq(frontier, nkStmt, s.Init)
		}
		var cond *cfgNode
		frontier, cond = b.seq(frontier, nkExpr, s.Cond)
		// Branch polarity flows through assume nodes: the then edge
		// knows cond held, the else edge knows it did not.  waitcycle
		// reads them (an accessor's lock is not held where its ok is
		// false); everyone else treats them like joins.
		assumeT := b.newNode(nkAssume, nil)
		assumeT.cond, assumeT.negate = s.Cond, false
		b.link([]*cfgNode{cond}, assumeT)
		assumeF := b.newNode(nkAssume, nil)
		assumeF.cond, assumeF.negate = s.Cond, true
		b.link([]*cfgNode{cond}, assumeF)
		thenOut := b.buildStmts(s.Body.List, []*cfgNode{assumeT})
		elseOut := []*cfgNode{assumeF}
		if s.Else != nil {
			elseOut = b.buildStmt(s.Else, []*cfgNode{assumeF})
		}
		return append(thenOut, elseOut...)

	case *ast.ForStmt:
		if s.Init != nil {
			frontier, _ = b.seq(frontier, nkStmt, s.Init)
		}
		var head *cfgNode
		if s.Cond != nil {
			frontier, head = b.seq(frontier, nkExpr, s.Cond)
		} else {
			frontier, head = b.seq(frontier, nkJoin, nil)
		}
		frame := &loopFrame{head: head}
		b.loops = append(b.loops, frame)
		bodyOut := b.buildStmts(s.Body.List, []*cfgNode{head})
		b.loops = b.loops[:len(b.loops)-1]
		if s.Post != nil {
			post := b.newNode(nkStmt, s.Post)
			b.link(bodyOut, post)
			bodyOut = []*cfgNode{post}
		}
		b.link(bodyOut, head) // back edge
		var out []*cfgNode
		if s.Cond != nil {
			out = append(out, head) // cond-false exit
		}
		return append(out, frame.breaks...)

	case *ast.RangeStmt:
		frontier, _ = b.seq(frontier, nkExpr, s.X)
		var head *cfgNode
		frontier, head = b.seq(frontier, nkRange, s)
		head.rng = s
		frame := &loopFrame{head: head}
		b.loops = append(b.loops, frame)
		bodyOut := b.buildStmts(s.Body.List, []*cfgNode{head})
		b.loops = b.loops[:len(b.loops)-1]
		b.link(bodyOut, head)
		return append([]*cfgNode{head}, frame.breaks...)

	case *ast.SwitchStmt:
		if s.Init != nil {
			frontier, _ = b.seq(frontier, nkStmt, s.Init)
		}
		var head *cfgNode
		if s.Tag != nil {
			frontier, head = b.seq(frontier, nkExpr, s.Tag)
		} else {
			frontier, head = b.seq(frontier, nkJoin, nil)
		}
		return b.buildCases(s.Body.List, head)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			frontier, _ = b.seq(frontier, nkStmt, s.Init)
		}
		var head *cfgNode
		frontier, head = b.seq(frontier, nkStmt, s.Assign)
		return b.buildCases(s.Body.List, head)

	case *ast.SelectStmt:
		var head *cfgNode
		frontier, head = b.seq(frontier, nkJoin, nil)
		frame := &loopFrame{isSwitch: true}
		b.loops = append(b.loops, frame)
		var out []*cfgNode
		hasDefault := false
		for _, cc := range s.Body.List {
			comm := cc.(*ast.CommClause)
			branch := []*cfgNode{head}
			if comm.Comm != nil {
				branch = b.buildStmt(comm.Comm, branch)
			} else {
				hasDefault = true
			}
			out = append(out, b.buildStmts(comm.Body, branch)...)
		}
		b.loops = b.loops[:len(b.loops)-1]
		out = append(out, frame.breaks...)
		if len(s.Body.List) == 0 || (len(out) == 0 && !hasDefault) {
			// select{} or every arm returns: nothing flows past.
		}
		_ = hasDefault
		return out

	case *ast.ReturnStmt:
		_, _ = b.seq(frontier, nkReturn, s)
		return nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if fr := b.innermost(func(f *loopFrame) bool { return true }); fr != nil {
				node := b.newNode(nkJoin, nil)
				b.link(frontier, node)
				fr.breaks = append(fr.breaks, node)
			}
		case token.CONTINUE:
			if fr := b.innermost(func(f *loopFrame) bool { return !f.isSwitch }); fr != nil {
				b.link(frontier, fr.head)
			}
		case token.FALLTHROUGH:
			// handled in buildCases via lookahead; reaching here means a
			// malformed position — treat as end of path.
			b.g.unsupported = true
		}
		return nil

	case *ast.LabeledStmt:
		// Labels with no labeled branches in the function (pre-scan
		// guarantees that) are transparent.
		return b.buildStmt(s.Stmt, frontier)

	case *ast.DeferStmt:
		b.g.defers = append(b.g.defers, s.Call)
		var nd *cfgNode
		frontier, nd = b.seq(frontier, nkStmt, s)
		_ = nd
		return frontier

	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				_, _ = b.seq(frontier, nkPanic, s)
				return nil
			}
		}
		frontier, _ = b.seq(frontier, nkStmt, s)
		return frontier

	case *ast.EmptyStmt:
		return frontier

	default:
		// AssignStmt, DeclStmt, SendStmt, IncDecStmt, GoStmt, ...
		frontier, _ = b.seq(frontier, nkStmt, s)
		return frontier
	}
}

// buildCases wires the clauses of a switch/type-switch.  Each clause
// branches from head; fallthrough chains a clause's frontier into the
// next clause's body.
func (b *cfgBuilder) buildCases(clauses []ast.Stmt, head *cfgNode) []*cfgNode {
	frame := &loopFrame{isSwitch: true}
	b.loops = append(b.loops, frame)
	var out []*cfgNode
	hasDefault := false
	carry := []*cfgNode(nil) // fallthrough edges into the next clause
	for _, cs := range clauses {
		cc := cs.(*ast.CaseClause)
		branch := []*cfgNode{head}
		for _, e := range cc.List {
			var en *cfgNode
			branch, en = b.seq(branch, nkExpr, e)
			_ = en
		}
		if cc.List == nil {
			hasDefault = true
		}
		branch = append(branch, carry...)
		carry = nil
		body := cc.Body
		fall := false
		if n := len(body); n > 0 {
			if br, ok := body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fall = true
				body = body[:n-1]
			}
		}
		clauseOut := b.buildStmts(body, branch)
		if fall {
			carry = clauseOut
		} else {
			out = append(out, clauseOut...)
		}
	}
	out = append(out, carry...) // fallthrough on the last clause: falls out
	b.loops = b.loops[:len(b.loops)-1]
	out = append(out, frame.breaks...)
	if !hasDefault {
		out = append(out, head) // no default: the switch may not match
	}
	return out
}

func (b *cfgBuilder) innermost(ok func(*loopFrame) bool) *loopFrame {
	for i := len(b.loops) - 1; i >= 0; i-- {
		if ok(b.loops[i]) {
			return b.loops[i]
		}
	}
	return nil
}
