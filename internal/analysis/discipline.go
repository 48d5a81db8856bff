package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Discipline enforces the paper's asymmetry at compile time: a
// discipline exposes exactly one corresponding pair of transput
// primitives, so code tagged read-only must never reach the push-side
// API (Deliver world: Pusher, WOInPort) and code tagged
// write-only must never reach the pull side (Transfer world: InPort,
// OutPort).  Tags are file comments:
//
//	//transput:discipline readonly
//	//transput:discipline writeonly
//
// A tag covers every function declared in the file.  Reachability is
// computed over the direct call graph, so a violation hidden behind a
// helper two hops away is still found; dynamic dispatch through
// interfaces is not followed (the module's port plumbing is all direct
// calls).
var Discipline = &Analyzer{
	Name: "discipline",
	Doc:  "read-only-tagged code must not reach push-side transput APIs, and vice versa",
	Run:  runDiscipline,
}

const disciplineTagPrefix = "transput:discipline"

// forbidden symbol names in the transput package, per side.
var pushSideNames = map[string]bool{
	// Active-output / passive-input world: write-only discipline only.
	"Pusher": true, "WOInPort": true,
	"NewPusher": true, "NewWOInPort": true,
	"OpDeliver": true, "DeliverRequest": true, "DeliverReply": true,
}

var pullSideNames = map[string]bool{
	// Active-input / passive-output world: read-only discipline only.
	"InPort": true, "OutPort": true,
	"NewInPort": true, "NewOutPort": true,
	"OpTransfer": true, "TransferRequest": true, "TransferReply": true,
}

func isTransputPackage(path string) bool {
	return strings.HasSuffix(path, "/internal/transput")
}

func runDiscipline(pass *Pass) error {
	prog := pass.Prog
	graph := BuildCallGraph(prog)

	// Map each function to its file's tag, if any.
	type tagged struct {
		node *FuncNode
		side string // "readonly" or "writeonly"
	}
	var roots []tagged
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			side := fileDisciplineTag(f)
			if side == "" {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj, _ := pkg.Info.Defs[fd.Name].(*types.Func); obj != nil {
					if node := graph.ByObj[obj]; node != nil {
						roots = append(roots, tagged{node: node, side: side})
					}
				}
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// Precompute, per function, the forbidden transput symbols it
	// references directly (for each side).
	refs := make(map[*FuncNode][]symbolRef)
	for _, node := range graph.Nodes {
		refs[node] = forbiddenRefs(node)
	}

	for _, root := range roots {
		var banned map[string]bool
		if root.side == "readonly" {
			banned = pushSideNames
		} else {
			banned = pullSideNames
		}
		reportReach(pass, root.node, root.side, banned, refs)
	}
	return nil
}

type symbolRef struct {
	name string
	pos  token.Pos
}

// forbiddenRefs lists transput-package symbols (of either side) that a
// function's body references directly.
func forbiddenRefs(node *FuncNode) []symbolRef {
	body := node.Body()
	if body == nil {
		return nil
	}
	var out []symbolRef
	seen := make(map[string]bool)
	scan := func(n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok && x != node.Lit {
				return false // literals are separate graph nodes
			}
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			obj := node.Pkg.Info.Uses[id]
			if obj == nil || obj.Pkg() == nil || !isTransputPackage(obj.Pkg().Path()) {
				return true
			}
			name := obj.Name()
			if (pushSideNames[name] || pullSideNames[name]) && !seen[name] {
				seen[name] = true
				out = append(out, symbolRef{name: name, pos: id.Pos()})
			}
			return true
		})
	}
	if node.Decl != nil {
		if node.Decl.Type != nil {
			scan(node.Decl.Type) // signatures count: returning *InPort is reaching it
		}
		scan(body)
	} else {
		scan(node.Lit)
	}
	return out
}

// reportReach BFSes the call graph from root and reports the first
// banned reference on each path.
func reportReach(pass *Pass, root *FuncNode, side string, banned map[string]bool, refs map[*FuncNode][]symbolRef) {
	type hop struct {
		node *FuncNode
		via  []string
	}
	visited := map[*FuncNode]bool{root: true}
	queue := []hop{{node: root}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		for _, r := range refs[h.node] {
			if !banned[r.name] {
				continue
			}
			if h.node == root {
				pass.Reportf(r.pos, "%s-tagged function %s uses %s-side symbol transput.%s",
					side, root.Name, otherSide(side), r.name)
			} else {
				pass.Reportf(root.Pos(), "%s-tagged function %s reaches %s-side symbol transput.%s via %s",
					side, root.Name, otherSide(side), r.name, strings.Join(append(h.via, h.node.Name), " -> "))
			}
		}
		for _, e := range h.node.Edges {
			if visited[e.Callee] {
				continue
			}
			visited[e.Callee] = true
			via := h.via
			if h.node != root {
				via = append(append([]string(nil), h.via...), h.node.Name)
			}
			queue = append(queue, hop{node: e.Callee, via: via})
		}
	}
}

func otherSide(side string) string {
	if side == "readonly" {
		return "push"
	}
	return "pull"
}

// fileDisciplineTag extracts the //transput:discipline tag from a
// file's comments, if present.
func fileDisciplineTag(f *ast.File) string {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, disciplineTagPrefix) {
				continue
			}
			side := strings.TrimSpace(strings.TrimPrefix(text, disciplineTagPrefix))
			if side == "readonly" || side == "writeonly" {
				return side
			}
		}
	}
	return ""
}
