package analysis

import (
	"go/ast"
	"go/types"
)

// PoolHygiene checks the lifecycle of pooled records (the Invocation/
// Call records of the invocation fast path, and the protocol records of
// wire.Pool).  Producers and consumers are classified structurally rather
// than by name:
//
//   - a producer is a function whose body draws from a sync.Pool
//     (pool.Get()) and returns a pointer — acquireInvocation, newCall,
//     (*wire.Pool[T]).Get, ...
//   - a consumer is a function (or method) that passes one of its
//     parameters (or its receiver) to pool.Put — releaseInvocation,
//     (*Call).release, (*wire.Pool[T]).Put, ...
//
// A call of a generic type's method resolves to its declaration
// (calleeFunc), so every instantiation of wire.Pool is one producer and
// one consumer.
//
// With that classification, two dataflow passes run per function:
// obligation mode reports records acquired from a producer that can
// reach a return without being put back or handed off, and stale mode
// reports any use of a record after it went back to the pool.
var PoolHygiene = &Analyzer{
	Name: "poolhygiene",
	Doc:  "report missing Put and use-after-Put on pooled records",
	Run:  runPoolHygiene,
}

// poolRoles holds the classification for one program.
type poolRoles struct {
	producers map[*types.Func]bool
	// consumers maps a releasing function to the index of the released
	// parameter; -1 means the receiver is released.
	consumers map[*types.Func]int
}

func runPoolHygiene(pass *Pass) error {
	roles := classifyPoolRoles(pass.Prog)
	for _, pkg := range pass.Prog.Pkgs {
		spec := poolSpec(pkg, roles)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				// Producers and consumers are the lifecycle mechanism
				// itself; analyzing their bodies against the same rules
				// would read the pool draw inside a producer as a fresh
				// obligation it never discharges.
				if obj, _ := pkg.Info.Defs[fd.Name].(*types.Func); obj != nil {
					if roles.producers[obj] {
						continue
					}
					if _, isConsumer := roles.consumers[obj]; isConsumer {
						continue
					}
				}
				reportPoolFindings(pass, pkg, spec, fd.Body)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						reportPoolFindings(pass, pkg, spec, lit.Body)
					}
					return true
				})
			}
		}
	}
	return nil
}

func reportPoolFindings(pass *Pass, pkg *Package, spec lifetimeSpec, body *ast.BlockStmt) {
	lt := runLifetime(spec, body, false)
	for _, l := range lt.leaks() {
		exit := pass.Prog.Fset.Position(l.exitPos)
		pass.Reportf(l.allocPos,
			"pooled record %s may reach the return at line %d without being released back to its pool",
			l.v.Name(), exit.Line)
	}
	st := runLifetime(spec, body, true)
	for _, u := range st.staleUses() {
		rel := pass.Prog.Fset.Position(u.releasePos)
		pass.Reportf(u.usePos,
			"use of pooled record %s after it was released at line %d",
			u.v.Name(), rel.Line)
	}
}

// classifyPoolRoles scans every function for the producer/consumer
// patterns.
func classifyPoolRoles(prog *Program) *poolRoles {
	roles := &poolRoles{
		producers: make(map[*types.Func]bool),
		consumers: make(map[*types.Func]int),
	}
	funcDecls(prog, func(pkg *Package, fd *ast.FuncDecl) {
		obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
		if obj == nil || fd.Body == nil {
			return
		}
		sig := obj.Type().(*types.Signature)
		drawsPool := false
		var putArgs []ast.Expr
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isPoolMethod(pkg.Info, call, "Get") {
				drawsPool = true
			}
			if isPoolMethod(pkg.Info, call, "Put") && len(call.Args) == 1 {
				putArgs = append(putArgs, call.Args[0])
			}
			return true
		})
		// Producer: draws from a pool and returns exactly one pointer.
		if drawsPool && sig.Results().Len() == 1 {
			if _, ok := sig.Results().At(0).Type().Underlying().(*types.Pointer); ok {
				roles.producers[obj] = true
			}
		}
		// Consumer: puts a parameter or the receiver back.
		for _, arg := range putArgs {
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				continue
			}
			v, _ := pkg.Info.Uses[id].(*types.Var)
			if v == nil {
				continue
			}
			if recv := sig.Recv(); recv != nil && v == recv {
				roles.consumers[obj] = -1
				continue
			}
			for i := 0; i < sig.Params().Len(); i++ {
				if sig.Params().At(i) == v {
					roles.consumers[obj] = i
				}
			}
		}
	})
	return roles
}

// isPoolMethod reports whether call is (*sync.Pool).name.
func isPoolMethod(info *types.Info, call *ast.CallExpr, name string) bool {
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
	return isNamedType(sig.Recv().Type(), "sync", "Pool")
}

func poolSpec(pkg *Package, roles *poolRoles) lifetimeSpec {
	info := pkg.Info
	calleeRole := func(call *ast.CallExpr) (*types.Func, bool) {
		f := calleeFunc(info, call)
		if f == nil {
			return nil, false
		}
		_, ok := roles.consumers[f]
		return f, ok
	}
	return lifetimeSpec{
		pkg: pkg,
		isAlloc: func(call *ast.CallExpr) bool {
			if isPoolMethod(info, call, "Get") {
				return true
			}
			f := calleeFunc(info, call)
			return f != nil && roles.producers[f]
		},
		releaseArgs: func(call *ast.CallExpr) []ast.Expr {
			if isPoolMethod(info, call, "Put") && len(call.Args) == 1 {
				return call.Args[:1]
			}
			f, isConsumer := calleeRole(call)
			if !isConsumer {
				return nil
			}
			idx := roles.consumers[f]
			if idx == -1 {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					return []ast.Expr{sel.X}
				}
				return nil
			}
			if idx < len(call.Args) {
				return []ast.Expr{call.Args[idx]}
			}
			return nil
		},
		trackable: func(v *types.Var) bool {
			if v.IsField() || v.Pkg() == nil {
				return false
			}
			// Pointers to named structs — the shape of every pooled
			// record — and, in a generic body, to a type parameter (a
			// wire.Pool's record).  Interfaces, slices, and scalars are
			// out of scope.
			p, ok := v.Type().Underlying().(*types.Pointer)
			if !ok {
				return false
			}
			if _, ok := p.Elem().(*types.TypeParam); ok {
				return true
			}
			n := namedOrPtr(p.Elem())
			if n == nil {
				return false
			}
			_, isStruct := n.Underlying().(*types.Struct)
			return isStruct
		},
	}
}
