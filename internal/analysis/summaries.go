package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The call-graph order and the storage resolution that waitcycle and
// protomodel share: waitcycle computes its per-function lock facts
// bottom-up over the call graph's strongly connected components —
// callees before callers — and both name a cond, a mutex or a channel
// by the variable or field that stores it.

// liveScope limits the concurrency analyzers (waitcycle, protomodel)
// to the module's internal packages and to fixtures.
func liveScope(path string) bool {
	return strings.HasPrefix(path, "fixture/") || strings.Contains(path, "/internal/")
}

// sccOrder returns the call graph's strongly connected components in
// bottom-up (reverse topological) order: every edge followed by
// `follow` leads from a later component to an earlier one, so a
// summary pass that walks the slice forward sees callees before
// callers.  Tarjan's algorithm emits components in exactly that order.
func sccOrder(g *CallGraph, follow func(CallEdge) bool) [][]*FuncNode {
	index := make(map[*FuncNode]int, len(g.Nodes))
	low := make(map[*FuncNode]int, len(g.Nodes))
	onStack := make(map[*FuncNode]bool)
	var stack []*FuncNode
	var sccs [][]*FuncNode
	next := 0

	// Iterative Tarjan: frame carries the node and the next edge index.
	type frame struct {
		n  *FuncNode
		ei int
	}
	var visit func(root *FuncNode)
	visit = func(root *FuncNode) {
		frames := []frame{{n: root}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			n := f.n
			if f.ei == 0 {
				index[n] = next
				low[n] = next
				next++
				stack = append(stack, n)
				onStack[n] = true
			}
			advanced := false
			for f.ei < len(n.Edges) {
				e := n.Edges[f.ei]
				f.ei++
				if e.Callee == nil || !follow(e) {
					continue
				}
				c := e.Callee
				if _, seen := index[c]; !seen {
					frames = append(frames, frame{n: c})
					advanced = true
					break
				}
				if onStack[c] && index[c] < low[n] {
					low[n] = index[c]
				}
			}
			if advanced {
				continue
			}
			// All edges done: pop, propagate lowlink, maybe emit an SCC.
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].n
				if low[n] < low[p] {
					low[p] = low[n]
				}
			}
			if low[n] == index[n] {
				var comp []*FuncNode
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[m] = false
					comp = append(comp, m)
					if m == n {
						break
					}
				}
				sccs = append(sccs, comp)
			}
		}
	}
	for _, n := range g.Nodes {
		if _, seen := index[n]; !seen {
			visit(n)
		}
	}
	return sccs
}

// isCondMethod reports whether call is sync.Cond's method name
// (Wait/Signal/Broadcast).
func isCondMethod(info *types.Info, call *ast.CallExpr, name string) bool {
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
	return isNamedType(sig.Recv().Type(), "sync", "Cond")
}

// condVarOf identifies the condition-variable storage behind the
// receiver of a cond method call: the field or variable object, which
// is stable across promoted-field access (channel.cond and
// chanCore.cond resolve to the same *types.Var).  Returns nil when the
// receiver is not a simple field/var reference.
func condVarOf(info *types.Info, call *ast.CallExpr) *types.Var {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return storageVar(info, sel.X)
}

// storageVar resolves expr to the variable or struct field it names.
func storageVar(info *types.Info, expr ast.Expr) *types.Var {
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return v
		}
		if v, ok := info.Defs[x].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v
			}
		}
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			return v
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return storageVar(info, x.X)
		}
	}
	return nil
}

// varDisplay renders a storage var for diagnostics: package.name with
// the declaring file attached when the bare name is ambiguous (half
// the module's mutexes are called "mu").
func varDisplay(prog *Program, v *types.Var) string {
	pkg := ""
	if v.Pkg() != nil {
		pkg = v.Pkg().Name() + "."
	}
	pos := prog.Fset.Position(v.Pos())
	if pos.IsValid() {
		return fmt.Sprintf("%s%s(%s:%d)", pkg, v.Name(), shortFile(pos.Filename), pos.Line)
	}
	return pkg + v.Name()
}

// shortFile trims a position's filename to its last two path elements
// for compact diagnostics.
func shortFile(name string) string {
	slash := 0
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' {
			slash++
			if slash == 2 {
				return name[i+1:]
			}
		}
	}
	return name
}
