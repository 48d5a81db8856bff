package analysis

import (
	"go/token"
	"path/filepath"
	"testing"
)

// TestProtoExtractionRealTree proves the shape extraction actually
// reads the protocol out of the real transput package.  Without this,
// a matcher regression could silently extract nothing and the model
// would "prove" the default configuration instead of the tree.
func TestProtoExtractionRealTree(t *testing.T) {
	prog, pkg := loadRealTransput(t)
	sh := extractProtoShapes(pkg)

	if sh.gatePos == 0 {
		t.Fatal("window gate (for active >= limit wait loop) not extracted")
	}
	if !sh.gateStrict {
		t.Error("gate extracted as non-strict; link.enter (link.go) waits while active >= limit")
	}
	if sh.gates != 1 {
		t.Errorf("%d window gates extracted, want 1: InPort and Pusher share the link's", sh.gates)
	}
	if sh.limitPos == 0 {
		t.Fatal("limit update not extracted")
	}
	if !sh.floorOne {
		t.Error("1+grant/size floor not extracted")
	}
	if !sh.clampWin {
		t.Error("window clamp not extracted")
	}
	// Gate, floor and clamp are the engine's, read once for both faces.
	for what, pos := range map[string]token.Pos{"gate": sh.gatePos, "limit update": sh.limitPos} {
		if file := filepath.Base(prog.Fset.Position(pos).Filename); file != "link.go" {
			t.Errorf("%s extracted from %s, want link.go", what, file)
		}
	}
	if len(sh.waitLoops) < 6 {
		t.Errorf("extracted %d chanCore-family wait loops, want >= 6 (channel.go: put 2, take 1, absorb 2, next 1)", len(sh.waitLoops))
	}
	for i, wl := range sh.waitLoops {
		if !wl.abortAware {
			t.Errorf("wait loop #%d extracted as not abort-aware; every real channel wait re-checks abortErr", i)
		}
	}
	if len(sh.aborters) != 1 {
		t.Errorf("extracted %d abort writers, want exactly 1 (channel.abortLocked: every teardown path funnels through it)", len(sh.aborters))
	}
	for _, ab := range sh.aborters {
		if !ab.drains || !ab.broadcasts {
			t.Errorf("abort writer extracted as drains=%v broadcasts=%v; all real aborters drain and broadcast", ab.drains, ab.broadcasts)
		}
	}
}

// TestProtoExtractionCoversPassiveBuffer proves the buffered discipline
// is model-checked rather than exempted: the wait loops and the abort
// writer the model is built from are the very ones PassiveBuffer's
// Deliver and Transfer faces run, because the buffer is a face over the
// one chanCore-family record.
func TestProtoExtractionCoversPassiveBuffer(t *testing.T) {
	prog, pkg := loadRealTransput(t)
	sh := extractProtoShapes(pkg)

	var serve *FuncNode
	for _, n := range BuildCallGraph(prog).Nodes {
		if n.Name == "asymstream/internal/transput.*PassiveBuffer.Serve" {
			serve = n
		}
	}
	if serve == nil {
		t.Fatal("PassiveBuffer.Serve not in the call graph")
	}
	reached := map[*FuncNode]bool{serve: true}
	for work := []*FuncNode{serve}; len(work) > 0; {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range n.Edges {
			if !reached[e.Callee] {
				reached[e.Callee] = true
				work = append(work, e.Callee)
			}
		}
	}
	// within names the reached function a position falls in.
	within := func(pos token.Pos) string {
		for n := range reached {
			if b := n.Body(); b != nil && b.Pos() <= pos && pos < b.End() {
				return n.Name
			}
		}
		return ""
	}
	loops := map[string]int{}
	for _, wl := range sh.waitLoops {
		loops[within(wl.pos)]++
	}
	const rec = "asymstream/internal/transput/internal/core.ChanRef."
	if loops[rec+"Absorb"] != 2 || loops[rec+"Take"] != 1 {
		t.Errorf("wait loops reached from PassiveBuffer.Serve: %v; want 2 in absorb (Deliver face) and 1 in take (Transfer face)", loops)
	}
	for _, ab := range sh.aborters {
		if got := within(ab.pos); got != rec+"abortLocked" {
			t.Errorf("abort writer in %q is not reached from PassiveBuffer.Serve via %sabortLocked", got, rec)
		}
	}
}

func loadRealTransput(t *testing.T) (*Program, *Package) {
	t.Helper()
	prog := loadModule(t)
	pkg := prog.Package("asymstream/internal/transput/internal/core")
	if pkg == nil {
		t.Fatal("transput core package not loaded")
	}
	return prog, pkg
}

// TestProtoModelSelfTest is the seeded-mutant gate at the PR bound.
func TestProtoModelSelfTest(t *testing.T) {
	if err := ProtoModelSelfTest(3, 2, 0); err != nil {
		t.Fatal(err)
	}
}
