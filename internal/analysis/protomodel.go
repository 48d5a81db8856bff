package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ProtoModel model-checks the windowed credit protocol.  The other
// analyzers prove shapes ("this loop re-checks its predicate"); this
// one proves behaviour: it extracts the protocol's load-bearing code
// shapes from the transput package, maps them onto an explicit-state
// transition system (creditmodel.go), and exhaustively explores every
// interleaving at a small bound, reporting any reachable violation
// with a minimal witness trace.
//
// The extracted shapes, each anchored to a source position:
//
//   - the window gate: the wait loop comparing the in-flight count
//     against the limit (strict `active >= limit` parks the helper; `>`
//     would admit window+1 exchanges — I2).  The active engine states
//     it once (transput's link.go) for both faces — Deliver against
//     the sink's credits, Transfer against the source's backlog — and
//     a second gate anywhere in the package is a finding;
//   - the limit update: the `1 + grant/batch` floor (without it a
//     zero-grant reply parks every helper with nothing in flight to
//     raise the limit — I3) and the window clamp (I2), spelt either
//     `min(x.window, 1+grant/batch)` or as an `if lim > x.window`;
//   - the sink's wait loops on chanCore-family channels: each must
//     re-check abortErr so parked deliveries drain on abort (I3);
//   - the abort writers on chanCore-family channels: each must drop
//     the backlog and Broadcast (I4, I3).
//
// "chanCore family" means a struct with both the `wait()` helper and
// an `abortErr` field — transput's one channel record.  OutPort,
// WOInPort and PassiveBuffer are all faces over it, so the shapes
// extracted here are the ones every passive discipline runs.
//
// A shape that is present but wrong is reported twice: once as the
// shape finding, and once as the model violation it causes, with the
// BFS-minimal event trace.  A shape that cannot be located at all is
// reported as unextractable — the model refuses to claim anything it
// did not read out of the source.
var ProtoModel = &Analyzer{
	Name: "protomodel",
	Doc:  "exhaustively model-check the extracted windowed credit protocol",
	Run:  runProtoModel,
}

// Exploration bounds, overridable by cmd/transput-vet flags and
// (smaller) by fixture tests.  The defaults are the PR gate: window
// K=4, writers P=2, explored exhaustively.
var (
	ProtoWindow    = 4
	ProtoWriters   = 2
	ProtoMaxStates = 4_000_000
)

func runProtoModel(pass *Pass) error {
	for _, pkg := range pass.Prog.Pkgs {
		if !liveScope(pkg.Path) || !strings.HasSuffix(pkg.Path, "internal/transput") {
			continue
		}
		checkProtoPackage(pass, pkg)
	}
	return nil
}

// protoShapes is the extraction result for one package.
type protoShapes struct {
	gatePos    token.Pos
	gateStrict bool
	gates      int // wait loops of the gate's shape in the package

	limitPos token.Pos
	floorOne bool
	clampWin bool

	waitLoops []waitLoopShape
	aborters  []aborterShape
}

type waitLoopShape struct {
	pos        token.Pos
	abortAware bool
}

type aborterShape struct {
	pos        token.Pos
	drains     bool
	broadcasts bool
}

func checkProtoPackage(pass *Pass, pkg *Package) {
	sh := extractProtoShapes(pkg)
	anchor := pkg.Files[0].Name.Pos()

	if sh.gatePos == token.NoPos && sh.limitPos == token.NoPos &&
		len(sh.waitLoops) == 0 && len(sh.aborters) == 0 {
		pass.Reportf(anchor,
			"credit protocol not found in %s: no window gate, limit update, or channel abort path to model", pkg.Path)
		return
	}

	p := defaultModelParams(ProtoWindow, ProtoWriters)
	flip := map[string]token.Pos{}

	if sh.gatePos == token.NoPos {
		pass.Reportf(anchor, "cannot extract window gate (a wait loop comparing active against limit); window bound unproven")
	} else if !sh.gateStrict {
		p.StrictGate = false
		flip["gate"] = sh.gatePos
		pass.Reportf(sh.gatePos, "window gate admits active == limit (waits only while active > limit): one delivery beyond the window can be in flight")
	}
	if sh.gates > 1 {
		pass.Reportf(sh.gatePos, "window gate stated %d times: the model checks one gate, which both faces of the active engine must share", sh.gates)
	}

	if sh.limitPos == token.NoPos {
		pass.Reportf(anchor, "cannot extract credit-limit update (a store to the limit field); credit liveness unproven")
	} else {
		if !sh.floorOne {
			p.FloorOne = false
			flip["floor"] = sh.limitPos
			pass.Reportf(sh.limitPos, "credit-limit update lacks the 1+credits/batch floor: a zero-credit reply can park every sender with nothing in flight to raise the limit")
		}
		if !sh.clampWin {
			p.ClampWin = false
			// The model's sink grants at most Cap, so the breach shows only
			// at a window no wider than that.
			p.Window = min(p.Window, p.Cap)
			flip["clamp"] = sh.limitPos
			pass.Reportf(sh.limitPos, "credit-limit update lacks the window clamp: a large credit grant raises the limit past the worker count")
		}
	}

	for _, wl := range sh.waitLoops {
		if !wl.abortAware {
			p.AbortWakes = false
			if _, ok := flip["wakes"]; !ok {
				flip["wakes"] = wl.pos
			}
			pass.Reportf(wl.pos, "channel wait loop does not re-check abortErr: a parked delivery never drains on abort")
		}
	}
	for _, ab := range sh.aborters {
		if !ab.broadcasts {
			p.AbortWakes = false
			if _, ok := flip["wakes"]; !ok {
				flip["wakes"] = ab.pos
			}
			pass.Reportf(ab.pos, "abort path sets abortErr without Broadcast: parked waiters never observe the abort")
		}
		if !ab.drains {
			p.AbortDrain = false
			if _, ok := flip["drain"]; !ok {
				flip["drain"] = ab.pos
			}
			pass.Reportf(ab.pos, "abort path sets abortErr without dropping the buffered backlog: aborted items are stranded in the channel")
		}
	}

	res := exploreCreditModel(p, ProtoMaxStates)
	for _, v := range res.Violations {
		pos := anchor
		switch v.Invariant {
		case "I2":
			pos = firstPos(flip["gate"], flip["clamp"], sh.gatePos, anchor)
		case "I3":
			pos = firstPos(flip["floor"], flip["wakes"], sh.limitPos, anchor)
		case "I4":
			pos = firstPos(flip["drain"], flip["wakes"], anchor)
		case "I1":
			pos = firstPos(sh.limitPos, anchor)
		}
		pass.Reportf(pos, "credit-protocol model (K=%d P=%d): %s violated — %s; witness: %s",
			p.Window, p.Writers, v.Invariant, v.Desc, renderTrace(v.Trace, 8))
	}
}

func firstPos(ps ...token.Pos) token.Pos {
	for _, p := range ps {
		if p != token.NoPos {
			return p
		}
	}
	return token.NoPos
}

func renderTrace(tr []string, max int) string {
	if len(tr) <= max {
		return strings.Join(tr, "; ")
	}
	return fmt.Sprintf("%s; … (%d steps total)", strings.Join(tr[:max], "; "), len(tr))
}

// extractProtoShapes walks the package for the four protocol shapes.
func extractProtoShapes(pkg *Package) protoShapes {
	var sh protoShapes
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			extractFromFunc(pkg, fd.Body, &sh)
		}
	}
	return sh
}

func extractFromFunc(pkg *Package, body *ast.BlockStmt, sh *protoShapes) {
	info := pkg.Info

	// Pass 1: wait loops (the gate, and family channel waits).
	ast.Inspect(body, func(n ast.Node) bool {
		fs, ok := n.(*ast.ForStmt)
		if !ok || fs.Cond == nil {
			return true
		}
		waitCall := findWaitCall(info, fs.Body)
		if waitCall == nil {
			return true
		}
		if op, ok := gateComparison(fs.Cond); ok {
			sh.gatePos = fs.Pos()
			sh.gateStrict = op == token.GEQ
			sh.gates++
			return true
		}
		if owner := waitOwnerType(info, waitCall); owner != nil && isChanCoreFamily(owner) {
			sh.waitLoops = append(sh.waitLoops, waitLoopShape{
				pos:        fs.Pos(),
				abortAware: mentionsAbortErr(fs.Cond),
			})
		}
		return true
	})

	// Pass 2: the credit-limit update and its floor/clamp, and the
	// abort writers.  Both are function-scoped facts: the floor/clamp
	// protect the store in the same function, and an abort writer must
	// drain and broadcast before it unlocks.
	var limitStore token.Pos
	floor, clamp := false, false
	var aborts []token.Pos
	drains, bcasts := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			rhs := ast.Unparen(n.Rhs[0])
			if sel, ok := n.Lhs[0].(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "limit":
					limitStore = n.Pos()
					floor = floor || isOnePlus(rhs)
					for _, e := range minArgs(info, rhs) {
						floor = floor || isOnePlus(ast.Unparen(e))
						clamp = clamp || isWindowField(e)
					}
				case "abortErr":
					if id, ok := rhs.(*ast.Ident); !ok || id.Name != "nil" {
						if t := exprType(info, sel.X); t != nil && isChanCoreFamily(t) {
							aborts = append(aborts, n.Pos())
						}
					}
				case "buf":
					if isEmptying(rhs) {
						drains = true
					}
				}
			}
			if isOnePlus(rhs) {
				floor = floor || limitCandidate(info, n)
			}
		case *ast.IfStmt:
			if be, ok := ast.Unparen(n.Cond).(*ast.BinaryExpr); ok && be.Op == token.GTR && isWindowField(be.Y) {
				clamp = true
			}
		case *ast.CallExpr:
			if isCondMethod(info, n, "Broadcast") {
				bcasts = true
			}
		}
		return true
	})
	if limitStore != token.NoPos {
		// Prefer the update that carries the floor/clamp discipline
		// over incidental stores (constructor resets and the like).
		score := b2i(floor) + b2i(clamp)
		if sh.limitPos == token.NoPos || score > b2i(sh.floorOne)+b2i(sh.clampWin) {
			sh.limitPos = limitStore
			sh.floorOne = floor
			sh.clampWin = clamp
		}
	}
	for _, pos := range aborts {
		sh.aborters = append(sh.aborters, aborterShape{pos: pos, drains: drains, broadcasts: bcasts})
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// findWaitCall returns a cond-Wait or wait()-helper call in the loop
// body (not inside a nested function literal), or nil.
func findWaitCall(info *types.Info, body *ast.BlockStmt) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isCondMethod(info, call, "Wait") {
			found = call
			return false
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "wait" && len(call.Args) == 0 {
			found = call
			return false
		}
		return true
	})
	return found
}

// gateComparison looks for `active <op> limit` (by field name) inside
// a wait-loop condition and returns the operator.
func gateComparison(cond ast.Expr) (token.Token, bool) {
	var op token.Token
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.GEQ && be.Op != token.GTR) {
			return true
		}
		x, okx := ast.Unparen(be.X).(*ast.SelectorExpr)
		y, oky := ast.Unparen(be.Y).(*ast.SelectorExpr)
		if okx && oky && x.Sel.Name == "active" && y.Sel.Name == "limit" {
			op, found = be.Op, true
			return false
		}
		return true
	})
	return op, found
}

// waitOwnerType resolves the channel that owns a wait: for `ch.wait()`
// the type of ch; for `ch.cond.Wait()` the type of ch (the receiver
// one selector up from the cond).
func waitOwnerType(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	x := ast.Unparen(sel.X)
	if sel.Sel.Name == "Wait" {
		inner, ok := x.(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		x = ast.Unparen(inner.X)
	}
	return exprType(info, x)
}

// isChanCoreFamily reports whether t (or what it points to) has both
// the lowercase wait() helper and an abortErr field — the signature of
// a chanCore-backed stream channel.
func isChanCoreFamily(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n := namedOrPtr(t)
	if n == nil {
		return false
	}
	m, _, _ := types.LookupFieldOrMethod(n, true, n.Obj().Pkg(), "wait")
	if _, ok := m.(*types.Func); !ok {
		return false
	}
	f, _, _ := types.LookupFieldOrMethod(n, true, n.Obj().Pkg(), "abortErr")
	_, ok := f.(*types.Var)
	return ok
}

// mentionsAbortErr reports whether the loop condition compares an
// abortErr field (the re-check that lets a parked waiter observe the
// abort and bail out).
func mentionsAbortErr(cond ast.Expr) bool {
	aware := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "abortErr" {
			aware = true
			return false
		}
		return true
	})
	return aware
}

// isOnePlus matches `1 + expr` (or `expr + 1`), the credit floor.
func isOnePlus(e ast.Expr) bool {
	be, ok := e.(*ast.BinaryExpr)
	if !ok || be.Op != token.ADD {
		return false
	}
	return isLitOne(be.X) || isLitOne(be.Y)
}

// minArgs returns the arguments of e if it is a call to the builtin
// min — the terms the stored limit is the least of — and nil otherwise.
func minArgs(info *types.Info, e ast.Expr) []ast.Expr {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "min" {
		return nil
	}
	if _, builtin := info.Uses[id].(*types.Builtin); !builtin {
		return nil
	}
	return call.Args
}

// isWindowField matches `x.window`, the bound the clamp holds the limit
// to.
func isWindowField(e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "window"
}

func isLitOne(e ast.Expr) bool {
	bl, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && bl.Value == "1"
}

// isEmptying matches `x[:0]` and `nil` — the backlog drop.
func isEmptying(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.SliceExpr:
		if e.Low != nil || e.High == nil {
			return false
		}
		bl, ok := ast.Unparen(e.High).(*ast.BasicLit)
		return ok && bl.Value == "0"
	}
	return false
}

// limitCandidate reports whether the assignment defines a local that a
// later `.limit = local` store in the same function consumes.  Kept
// permissive: a `lim := 1 + …` anywhere in a function that stores to
// .limit counts as the floor.
func limitCandidate(info *types.Info, n *ast.AssignStmt) bool {
	id, ok := n.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	_, isVar := info.Defs[id].(*types.Var)
	if !isVar {
		obj, ok := info.Uses[id].(*types.Var)
		isVar = ok && obj != nil
	}
	return isVar
}

// ProtoModelReport is the machine-readable exploration summary —
// cmd/transput-vet writes it as JSON for the nightly artifact.
type ProtoModelReport struct {
	Window      int      `json:"window"`
	Writers     int      `json:"writers"`
	Cap         int      `json:"cap"`
	States      int      `json:"states"`
	Transitions int      `json:"transitions"`
	Capped      bool     `json:"capped"`
	Violations  []string `json:"violations"`
}

// ProtoModelRun explores the correct-protocol configuration at the
// given bounds and reports the explored-space statistics.  transput-vet
// proving the real tree's extracted shapes all-correct makes this the
// real protocol's state space.
func ProtoModelRun(window, writers, maxStates int) ProtoModelReport {
	res := exploreCreditModel(defaultModelParams(window, writers), maxStates)
	rep := ProtoModelReport{
		Window: window, Writers: writers, Cap: 2,
		States: res.States, Transitions: res.Transitions, Capped: res.Capped,
	}
	for _, v := range res.Violations {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("%s: %s; witness: %s", v.Invariant, v.Desc, renderTrace(v.Trace, 8)))
	}
	return rep
}

// ProtoModelSelfTest seeds the three protocol mutants and verifies
// the checker re-detects each with the expected invariant, and that
// the unmutated protocol explores clean.  A model checker that cannot
// catch its own seeded bugs proves nothing with a clean run; this is
// the gate that keeps the zero-finding result meaningful.
func ProtoModelSelfTest(window, writers, maxStates int) error {
	res := exploreCreditModel(defaultModelParams(window, writers), maxStates)
	if len(res.Violations) > 0 {
		return fmt.Errorf("correct protocol reported %s: %s", res.Violations[0].Invariant, res.Violations[0].Desc)
	}
	if res.Capped {
		return fmt.Errorf("correct protocol exploration capped at %d states; raise -protomodel-max-states", res.States)
	}
	expect := map[creditMutant]string{
		MutantDropCreditGrant:   "I3",
		MutantMissingAbortDrain: "I4",
		MutantWindowOffByOne:    "I2",
	}
	for m, inv := range expect {
		mres := exploreCreditModel(defaultModelParams(window, writers).apply(m), maxStates)
		found := false
		for _, v := range mres.Violations {
			if v.Invariant == inv {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("seeded mutant %s not detected: expected a %s violation, got %d states clean", m, inv, mres.States)
		}
	}
	return nil
}
