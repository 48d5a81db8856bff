package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Direct unit tests for the call graph waitcycle walks: edge kinds are
// classified correctly and SCC order is bottom-up.

// loadUnitPkg type-checks src as a standalone fixture package through
// the real Loader (so sync etc. resolve) and returns the program.
func loadUnitPkg(t *testing.T, src string) *Program {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "unit.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	loader.AddPackage("fixture/unit", dir)
	prog, err := loader.Load("fixture/unit")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return prog
}

// nodeByName finds the call-graph node whose qualified name ends in
// suffix.
func nodeByName(t *testing.T, g *CallGraph, suffix string) *FuncNode {
	t.Helper()
	for _, n := range g.Nodes {
		if strings.HasSuffix(n.Name, suffix) {
			return n
		}
	}
	t.Fatalf("no call-graph node named *%s", suffix)
	return nil
}

func TestCallGraphEdgeKinds(t *testing.T) {
	prog := loadUnitPkg(t, `package unit

func leaf() {}

func caller() {
	leaf()               // plain call
	defer leaf()         // deferred
	go leaf()            // spawned
	f := func() { leaf() } // closure: one ref edge to the literal
	_ = f
}
`)
	g := BuildCallGraph(prog)
	caller := nodeByName(t, g, ".caller")
	counts := map[edgeKind]int{}
	refs := 0
	for _, e := range caller.Edges {
		if e.Kind == edgeRef {
			refs++
			continue
		}
		if e.Callee != nil && strings.HasSuffix(e.Callee.Name, ".leaf") {
			counts[e.Kind]++
		}
	}
	// One edge per site, each with its own kind: a deferred or spawned
	// call must NOT also count as a synchronous call.
	for kind, name := range map[edgeKind]string{
		edgeCall: "call", edgeDefer: "defer", edgeGo: "go",
	} {
		if counts[kind] != 1 {
			t.Errorf("want exactly one %s edge to leaf, got %d", name, counts[kind])
		}
	}
	if refs != 1 {
		t.Errorf("want exactly one ref edge to the closure literal, got %d", refs)
	}
}

func TestSCCOrderBottomUp(t *testing.T) {
	prog := loadUnitPkg(t, `package unit

func a() { b() }
func b() { c() }
func c() {}

// mutual recursion: one component
func ping(n int) { if n > 0 { pong(n - 1) } }
func pong(n int) { if n > 0 { ping(n - 1) } }
`)
	g := BuildCallGraph(prog)
	followAll := func(CallEdge) bool { return true }
	order := sccOrder(g, followAll)

	compOf := make(map[*FuncNode]int)
	for i, comp := range order {
		for _, n := range comp {
			compOf[n] = i
		}
	}
	// Bottom-up: every followed edge goes from a later component to an
	// earlier (or the same) one, so callees are visited first.
	for _, n := range g.Nodes {
		for _, e := range n.Edges {
			if e.Callee == nil {
				continue
			}
			if compOf[n] < compOf[e.Callee] {
				t.Errorf("edge %s -> %s violates bottom-up order (component %d < %d)",
					n.Name, e.Callee.Name, compOf[n], compOf[e.Callee])
			}
		}
	}
	ping := nodeByName(t, g, ".ping")
	pong := nodeByName(t, g, ".pong")
	if compOf[ping] != compOf[pong] {
		t.Error("mutually recursive ping/pong split across components")
	}
	if len(order[compOf[ping]]) != 2 {
		t.Errorf("ping's component has %d members, want 2", len(order[compOf[ping]]))
	}
	aN, bN, cN := nodeByName(t, g, ".a"), nodeByName(t, g, ".b"), nodeByName(t, g, ".c")
	if !(compOf[cN] < compOf[bN] && compOf[bN] < compOf[aN]) {
		t.Errorf("chain a->b->c not in strict bottom-up order: c=%d b=%d a=%d",
			compOf[cN], compOf[bN], compOf[aN])
	}
}
