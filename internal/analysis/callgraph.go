package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Direct static call graph over the analyzed program.  Function
// literals are their own nodes (a closure's effects belong to whoever
// runs it); dynamic dispatch through interface values is not followed
// — the analyzers that use the graph (discipline, fusable, goroleak,
// waitcycle) document that limit and the module's hot paths are all
// direct calls.

type edgeKind int

const (
	edgeCall  edgeKind = iota // ordinary call or method call
	edgeDefer                 // deferred call
	edgeGo                    // go statement: runs concurrently
	edgeRef                   // closure created here (may run later)
)

// FuncNode is one function (declared or literal) in the call graph.
type FuncNode struct {
	Obj   *types.Func // nil for literals
	Decl  *ast.FuncDecl
	Lit   *ast.FuncLit
	Pkg   *Package
	Name  string // qualified display name
	Edges []CallEdge
}

// Pos returns the function's declaration position.
func (f *FuncNode) Pos() token.Pos {
	if f.Decl != nil {
		return f.Decl.Pos()
	}
	return f.Lit.Pos()
}

// Body returns the function's body block (nil for bodyless decls).
func (f *FuncNode) Body() *ast.BlockStmt {
	if f.Decl != nil {
		return f.Decl.Body
	}
	return f.Lit.Body
}

// CallEdge records one call site.
type CallEdge struct {
	Callee *FuncNode
	Pos    token.Pos
	Kind   edgeKind
}

// CallGraph indexes the program's functions and their direct calls.
type CallGraph struct {
	ByObj map[*types.Func]*FuncNode
	Nodes []*FuncNode
}

// BuildCallGraph constructs the direct call graph for prog.
func BuildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{ByObj: make(map[*types.Func]*FuncNode)}
	litNodes := make(map[*ast.FuncLit]*FuncNode)

	// Pass 1: create nodes for every declared function and literal.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				node := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg, Name: qualifiedName(pkg, fd, obj)}
				if obj != nil {
					g.ByObj[obj] = node
				}
				g.Nodes = append(g.Nodes, node)
				collectLits(pkg, prog.Fset, fd.Body, node.Name, litNodes, g)
			}
		}
	}

	// Pass 2: resolve call sites.
	for _, node := range g.Nodes {
		body := node.Body()
		if body == nil {
			continue
		}
		pkg := node.Pkg
		// The defer/go cases record their n.Call with the right kind;
		// the generic CallExpr case must then skip that same node or
		// every `go f()` would also grow a synchronous edgeCall — which
		// would leak the callee's divergence into the spawner.
		claimed := make(map[*ast.CallExpr]bool)
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if n != node.Lit {
					if lit := litNodes[n]; lit != nil && n.Pos() > node.Pos() && enclosesLit(node, n) {
						node.Edges = append(node.Edges, CallEdge{Callee: lit, Pos: n.Pos(), Kind: edgeRef})
					}
					return false // literal bodies are separate nodes
				}
			case *ast.CallExpr:
				if claimed[n] {
					return true
				}
				if callee := resolveCallee(pkg, g, litNodes, n); callee != nil {
					node.Edges = append(node.Edges, CallEdge{Callee: callee, Pos: n.Pos(), Kind: edgeCall})
				}
			case *ast.DeferStmt:
				claimed[n.Call] = true
				if callee := resolveCallee(pkg, g, litNodes, n.Call); callee != nil {
					node.Edges = append(node.Edges, CallEdge{Callee: callee, Pos: n.Call.Pos(), Kind: edgeDefer})
				}
			case *ast.GoStmt:
				claimed[n.Call] = true
				if callee := resolveCallee(pkg, g, litNodes, n.Call); callee != nil {
					node.Edges = append(node.Edges, CallEdge{Callee: callee, Pos: n.Call.Pos(), Kind: edgeGo})
				}
			}
			return true
		})
	}
	return g
}

// collectLits registers every function literal under body as its own
// node, named after the enclosing function.
func collectLits(pkg *Package, fset *token.FileSet, body *ast.BlockStmt, outer string, litNodes map[*ast.FuncLit]*FuncNode, g *CallGraph) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			pos := fset.Position(lit.Pos())
			node := &FuncNode{Lit: lit, Pkg: pkg, Name: fmt.Sprintf("%s.func@%d", outer, pos.Line)}
			litNodes[lit] = node
			g.Nodes = append(g.Nodes, node)
		}
		return true
	})
}

// enclosesLit reports whether lit lexically sits directly inside
// node's body (not inside a deeper literal).  The Inspect in pass 2
// already stops at literal boundaries, so any literal seen belongs to
// node directly; this is a cheap sanity guard.
func enclosesLit(node *FuncNode, lit *ast.FuncLit) bool {
	body := node.Body()
	return body != nil && lit.Pos() >= body.Pos() && lit.End() <= body.End()
}

// resolveCallee maps a call expression to a FuncNode for direct calls
// into the analyzed program; nil for everything else (stdlib, builtins,
// conversions, dynamic dispatch through function values).
func resolveCallee(pkg *Package, g *CallGraph, litNodes map[*ast.FuncLit]*FuncNode, call *ast.CallExpr) *FuncNode {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return g.ByObj[obj]
		}
	case *ast.SelectorExpr:
		if obj, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
				// Method call: resolvable only when the receiver's static
				// type pins the concrete method (interface methods map to
				// no node and fall out naturally via the ByObj lookup).
				return g.ByObj[obj]
			}
			return g.ByObj[obj] // package-qualified function
		}
	case *ast.FuncLit:
		return litNodes[fun]
	}
	return nil
}

func qualifiedName(pkg *Package, fd *ast.FuncDecl, obj *types.Func) string {
	if obj == nil {
		return pkg.Path + "." + fd.Name.Name
	}
	if recv := fd.Recv; recv != nil && len(recv.List) > 0 {
		return pkg.Path + "." + types.TypeString(obj.Type().(*types.Signature).Recv().Type(), func(*types.Package) string { return "" }) + "." + fd.Name.Name
	}
	return pkg.Path + "." + fd.Name.Name
}
