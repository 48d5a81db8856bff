package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// Direct unit tests for the CFG builder's assume nodes: every If
// condition must fan out through exactly two nkAssume nodes carrying
// the condition with opposite polarity, and each branch's statements
// must be reachable only through the assume of the matching polarity.
// waitcycle reads these nodes (a lock held where a conditional acquire
// succeeded); a polarity flip would silently invert its branch
// reasoning.

// parseFuncBody parses src (a file fragment with exactly one function
// named fn) and returns that function's body.
func parseFuncBody(t *testing.T, src, fn string) *ast.BlockStmt {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "unit.go", "package unit\n\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			return fd.Body
		}
	}
	t.Fatalf("no function %s in source", fn)
	return nil
}

// assumesFor returns the two assume successors of the node holding
// cond, keyed by polarity.
func assumesFor(t *testing.T, g *funcCFG, cond ast.Expr) (thenA, elseA *cfgNode) {
	t.Helper()
	for _, n := range g.nodes {
		if n.kind != nkExpr || n.n != cond {
			continue
		}
		for _, s := range n.succs {
			if s.kind != nkAssume {
				t.Fatalf("condition node has non-assume successor kind %d", s.kind)
			}
			if s.cond != cond {
				t.Fatalf("assume node carries the wrong condition")
			}
			if s.negate {
				elseA = s
			} else {
				thenA = s
			}
		}
		if thenA == nil || elseA == nil {
			t.Fatalf("condition node lacks a %v-polarity assume successor",
				map[bool]string{true: "then", false: "else"}[thenA == nil])
		}
		return thenA, elseA
	}
	t.Fatalf("no CFG node for the condition expression")
	return nil, nil
}

// reachesStmt reports whether a node for stmt is reachable from start
// without passing through another assume node (i.e. within this
// branch arm).
func reachesStmt(start *cfgNode, stmt ast.Stmt) bool {
	seen := make(map[*cfgNode]bool)
	var walk func(n *cfgNode) bool
	walk = func(n *cfgNode) bool {
		if seen[n] {
			return false
		}
		seen[n] = true
		if n.n == stmt {
			return true
		}
		for _, s := range n.succs {
			if s.kind == nkAssume && s != n {
				continue
			}
			if walk(s) {
				return true
			}
		}
		return false
	}
	for _, s := range start.succs {
		if walk(s) {
			return true
		}
	}
	return start.n == stmt
}

func TestCFGAssumePolarityIfElse(t *testing.T) {
	body := parseFuncBody(t, `
func f(ok bool) int {
	x := 0
	if ok {
		x = 1
	} else {
		x = 2
	}
	return x
}`, "f")
	g := buildCFG(body)
	if g.unsupported {
		t.Fatal("builder marked a plain if/else unsupported")
	}
	ifStmt := body.List[1].(*ast.IfStmt)
	thenA, elseA := assumesFor(t, g, ifStmt.Cond)

	thenStmt := ifStmt.Body.List[0]
	elseStmt := ifStmt.Else.(*ast.BlockStmt).List[0]
	if !reachesStmt(thenA, thenStmt) {
		t.Error("then-branch statement unreachable through the positive assume")
	}
	if reachesStmt(thenA, elseStmt) {
		t.Error("else-branch statement reachable through the positive assume")
	}
	if !reachesStmt(elseA, elseStmt) {
		t.Error("else-branch statement unreachable through the negated assume")
	}
	if reachesStmt(elseA, thenStmt) {
		t.Error("then-branch statement reachable through the negated assume")
	}
	// Assume nodes must keep n nil so Inspect-based clients never
	// re-visit the condition expression.
	if thenA.n != nil || elseA.n != nil {
		t.Error("assume nodes expose a non-nil ast.Node")
	}
}

func TestCFGAssumePolarityNoElse(t *testing.T) {
	body := parseFuncBody(t, `
func g(ok bool) int {
	if ok {
		return 1
	}
	return 2
}`, "g")
	g := buildCFG(body)
	ifStmt := body.List[0].(*ast.IfStmt)
	thenA, elseA := assumesFor(t, g, ifStmt.Cond)

	thenRet := ifStmt.Body.List[0]
	after := body.List[1]
	if !reachesStmt(thenA, thenRet) {
		t.Error("guarded return unreachable through the positive assume")
	}
	if !reachesStmt(elseA, after) {
		t.Error("fallthrough statement unreachable through the negated assume")
	}
	if reachesStmt(elseA, thenRet) {
		t.Error("guarded return reachable through the negated assume")
	}
	// Both returns end the function; there is no fall-off end node.
	if r, e := countKind(g, nkReturn), countKind(g, nkEnd); r != 2 || e != 0 {
		t.Errorf("want 2 returns and no end node, got %d and %d", r, e)
	}
}

func TestCFGAssumePolarityElseIfChain(t *testing.T) {
	body := parseFuncBody(t, `
func h(a, b bool) int {
	if a {
		return 1
	} else if b {
		return 2
	}
	return 3
}`, "h")
	g := buildCFG(body)
	outer := body.List[0].(*ast.IfStmt)
	inner := outer.Else.(*ast.IfStmt)
	_, elseOuter := assumesFor(t, g, outer.Cond)
	thenInner, _ := assumesFor(t, g, inner.Cond)

	// The inner condition is evaluated only on the outer else edge.
	var innerCondNode *cfgNode
	for _, n := range g.nodes {
		if n.kind == nkExpr && n.n == inner.Cond {
			innerCondNode = n
		}
	}
	if innerCondNode == nil {
		t.Fatal("no node for the inner condition")
	}
	foundViaElse := false
	for _, p := range innerCondNode.preds {
		if p == elseOuter {
			foundViaElse = true
		}
		if p.kind == nkAssume && !p.negate && p.cond == outer.Cond {
			t.Error("inner condition reachable through the outer positive assume")
		}
	}
	if !foundViaElse {
		t.Error("inner condition not guarded by the outer negated assume")
	}
	if !reachesStmt(thenInner, inner.Body.List[0]) {
		t.Error("inner then-branch unreachable through its positive assume")
	}
}

func TestCFGUnsupportedConstructs(t *testing.T) {
	body := parseFuncBody(t, `
func bad() {
loop:
	for {
		break loop
	}
}`, "bad")
	if g := buildCFG(body); !g.unsupported {
		t.Error("labeled break not marked unsupported")
	}
	nested := parseFuncBody(t, `
func okOuter() {
	f := func() {
	inner:
		for {
			break inner
		}
	}
	f()
}`, "okOuter")
	if g := buildCFG(nested); g.unsupported {
		t.Error("label inside a nested FuncLit must not poison the outer CFG")
	}
}

func TestCFGForCondExit(t *testing.T) {
	body := parseFuncBody(t, `
func loop(n int) {
	for i := 0; i < n; i++ {
		work()
	}
	done()
}
func work() {}
func done() {}`, "loop")
	g := buildCFG(body)
	// The loop must fall through to done() via the condition node, and
	// the function must end by falling off its end.
	after := body.List[1]
	var afterNode *cfgNode
	for _, n := range g.nodes {
		if n.n == after {
			afterNode = n
		}
	}
	if afterNode == nil {
		t.Fatal("no node for the statement after the loop")
	}
	condFeeds := false
	for _, p := range afterNode.preds {
		if p.kind == nkExpr {
			condFeeds = true
		}
	}
	if !condFeeds {
		t.Error("post-loop statement not fed by the loop condition's false exit")
	}
	if r, e := countKind(g, nkReturn), countKind(g, nkEnd); r != 0 || e != 1 {
		t.Errorf("want a single fall-off end node and no return, got %d returns and %d end nodes", r, e)
	}
}

// countKind counts g's nodes of kind k.
func countKind(g *funcCFG, k nodeKind) int {
	c := 0
	for _, n := range g.nodes {
		if n.kind == k {
			c++
		}
	}
	return c
}
