package analysis

import (
	"go/ast"
	"go/types"
)

// SendOwn checks the write coalescer's cross-goroutine frame
// ownership, the contract socketlink.go/bridge.go document in prose:
// a pooled frame (*wire.Frame from wire.GetFrame) appended to a
// coalescer queue ([]*wire.Frame) is owned by whichever sender drains
// the queue.
// Three rules, one per role:
//
//   - enqueuer: appending the frame to an owners queue is the handoff;
//     the enqueuer must not PutFrame it or touch it afterwards (the
//     lifetime engine's stale mode, with the append recognized as the
//     releasing operation);
//   - drainer: a queue swapped out of its field (`owners := d.owners;
//     d.owners = nil`) is an obligation — every path to an exit must
//     drain it through a PutFrame loop or hand it to a helper that does
//     (obligation dataflow; the drain loop discharges via the range
//     hook);
//   - structurally, a package that appends frames into a coalescer
//     queue must contain a drain loop at all — a queue nothing ever
//     drains is a leak by construction, however the flows interleave.
//
// This is slabown's single-function model stretched across the
// goroutine boundary: the enqueue and the drain are different
// functions on different goroutines, and the queue field is the only
// thing connecting them, so the rules meet at the field's type
// ([]*wire.Frame) rather than at a call edge.
var SendOwn = &Analyzer{
	Name: "sendown",
	Doc:  "check coalescer frame handoff: no touch after enqueue, drain on every path",
	Run:  runSendOwn,
}

func runSendOwn(pass *Pass) error {
	for _, pkg := range pass.Prog.Pkgs {
		enqueueSpec := sendEnqueueSpec(pkg)
		drainSpec := sendDrainSpec(pkg)
		var appendSites []*ast.CallExpr
		hasDrainLoop := false
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				bodies := []*ast.BlockStmt{fd.Body}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						bodies = append(bodies, lit.Body)
					}
					return true
				})
				for _, body := range bodies {
					reportSendStale(pass, enqueueSpec, body)
					reportSendLeaks(pass, drainSpec, body)
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CallExpr:
						if ownersAppendArgs(pkg.Info, n) != nil && fieldQueueTarget(pkg.Info, n) {
							appendSites = append(appendSites, n)
						}
					case *ast.RangeStmt:
						if isOwnersQueue(pkg.Info.Types[n.X].Type) && bodyReleasesFrames(pkg.Info, n.Body) {
							hasDrainLoop = true
						}
					}
					return true
				})
			}
		}
		// Structural rule: enqueues with no drain loop anywhere in the
		// package.
		if len(appendSites) > 0 && !hasDrainLoop {
			for _, call := range appendSites {
				pass.Reportf(call.Pos(),
					"frames are appended to a coalescer queue but no drain loop in this package ever releases them")
			}
		}
	}
	return nil
}

func reportSendStale(pass *Pass, spec lifetimeSpec, body *ast.BlockStmt) {
	lt := runLifetime(spec, body, true)
	for _, u := range lt.staleUses() {
		pass.Reportf(u.usePos,
			"frame %s touched after it was handed to the coalescer (or released) at line %d",
			u.v.Name(), pass.Prog.Fset.Position(u.releasePos).Line)
	}
}

func reportSendLeaks(pass *Pass, spec lifetimeSpec, body *ast.BlockStmt) {
	lt := runLifetime(spec, body, false)
	for _, l := range lt.leaks() {
		exit := pass.Prog.Fset.Position(l.exitPos)
		pass.Reportf(l.allocPos,
			"swapped-out coalescer queue %s may drop its frames without PutFrame on the path returning at line %d",
			l.v.Name(), exit.Line)
	}
}

// isFrame reports whether t is *wire.Frame, a pooled frame.
func isFrame(t types.Type) bool {
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	return ok && n.Obj().Name() == "Frame" && n.Obj().Pkg() != nil && isWirePackage(n.Obj().Pkg().Path())
}

// isOwnersQueue reports whether t is []*wire.Frame, a coalescer queue.
func isOwnersQueue(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	return ok && isFrame(s.Elem())
}

// ownersAppendArgs recognizes `append(queue, frame...)` where queue is
// a coalescer queue, returning the appended frame expressions.
func ownersAppendArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) < 2 {
		return nil
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return nil
	}
	if tv, ok := info.Types[call.Args[0]]; !ok || !isOwnersQueue(tv.Type) {
		return nil
	}
	return call.Args[1:]
}

// fieldQueueTarget reports whether the append's destination is a
// struct field (the cross-goroutine queue, not a local accumulator).
func fieldQueueTarget(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	v, ok := info.Uses[sel.Sel].(*types.Var)
	return ok && v.IsField()
}

// bodyReleasesFrames reports whether a loop body hands frames back to
// the pool.
func bodyReleasesFrames(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isPkgFunc(info, call, isWirePackage, "PutFrame") {
			found = true
		}
		return !found
	})
	return found
}

// sendEnqueueSpec tracks individual frames in stale mode: after the
// queue append (or a PutFrame), the frame belongs to someone else.
func sendEnqueueSpec(pkg *Package) lifetimeSpec {
	info := pkg.Info
	return lifetimeSpec{
		pkg: pkg,
		isAlloc: func(call *ast.CallExpr) bool {
			return isPkgFunc(info, call, isWirePackage, "GetFrame")
		},
		releaseArgs: func(call *ast.CallExpr) []ast.Expr {
			if isPkgFunc(info, call, isWirePackage, "PutFrame") && len(call.Args) == 1 {
				return call.Args[:1]
			}
			return ownersAppendArgs(info, call)
		},
		trackable: func(v *types.Var) bool {
			return !v.IsField() && v.Pkg() != nil && isFrame(v.Type())
		},
	}
}

// sendDrainSpec tracks swapped-out queues in obligation mode: the swap
// acquires, the drain loop (or a handoff) discharges.
func sendDrainSpec(pkg *Package) lifetimeSpec {
	info := pkg.Info
	return lifetimeSpec{
		pkg: pkg,
		isAllocExpr: func(e ast.Expr) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			v, ok := info.Uses[sel.Sel].(*types.Var)
			return ok && v.IsField() && isOwnersQueue(v.Type())
		},
		rangeReleases: func(rng *ast.RangeStmt) bool {
			return bodyReleasesFrames(info, rng.Body)
		},
		trackable: func(v *types.Var) bool {
			return !v.IsField() && v.Pkg() != nil && isOwnersQueue(v.Type())
		},
	}
}
