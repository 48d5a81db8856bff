package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// MetricsTable keeps the metrics surface honest.  It recognizes any
// package shaped like internal/metrics — a struct type `Set` whose
// fields, direct or promoted from the package's own embedded structs,
// are that package's Counter/Gauge/HighWater types, next to a
// package-level `fieldTable` composite literal mapping snapshot names
// to getters — and checks three things:
//
//  1. every Counter/Gauge/HighWater field of Set appears exactly once
//     in fieldTable (a field missing from the table silently vanishes
//     from Snapshot/Diff, the bug class this table was built to stop);
//  2. no two table entries claim the same name;
//  3. Snapshot.Get("name") calls anywhere in the program use names the
//     table actually declares;
//  4. hot-path mutations (Inc/Dec/Add/AddAt/Sub/Observe) act on hoisted
//     handles — a receiver chain that re-fetches the Set through a
//     call on every increment (k.Metrics().Invocations.Inc()) is
//     flagged.  Reads (Value, Snapshot) are exempt: they belong to
//     cold paths.
var MetricsTable = &Analyzer{
	Name: "metricstable",
	Doc:  "metrics must be declared in the package metrics table and mutated via hoisted handles",
	Run:  runMetricsTable,
}

// metricsShape describes one package that declares the Set/fieldTable
// pair.
type metricsShape struct {
	pkg        *Package
	setType    *types.Named
	counters   map[string]bool // Set field name -> is counter-like
	tableNames map[string]bool // names declared in fieldTable
}

func runMetricsTable(pass *Pass) error {
	shapes := findMetricsShapes(pass)
	if len(shapes) == 0 {
		return nil
	}
	byPkg := make(map[*types.Package]*metricsShape)
	for _, s := range shapes {
		byPkg[s.pkg.Types] = s
	}
	for _, pkg := range pass.Prog.Pkgs {
		checkMetricsUses(pass, pkg, byPkg)
	}
	return nil
}

// findMetricsShapes locates Set/fieldTable pairs and validates their
// internal consistency.
func findMetricsShapes(pass *Pass) []*metricsShape {
	var shapes []*metricsShape
	for _, pkg := range pass.Prog.Pkgs {
		setObj, ok := pkg.Types.Scope().Lookup("Set").(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := setObj.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		tableVar, ok := pkg.Types.Scope().Lookup("fieldTable").(*types.Var)
		if !ok {
			continue
		}
		shape := &metricsShape{
			pkg:        pkg,
			setType:    named,
			counters:   make(map[string]bool),
			tableNames: make(map[string]bool),
		}
		collectCounters(pkg.Types, st, shape.counters)
		lit, litPos := findTableLiteral(pkg, tableVar)
		if lit == nil {
			continue
		}
		// Walk the table entries: collect names and referenced fields.
		fieldsSeen := make(map[string]bool)
		for _, elt := range lit.Elts {
			entry, ok := elt.(*ast.CompositeLit)
			if !ok {
				continue
			}
			name := ""
			var fieldRefs []string
			for _, ee := range entry.Elts {
				val := ee
				if kv, ok := ee.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if tv, ok := pkg.Info.Types[val]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
					name = constant.StringVal(tv.Value)
				}
				ast.Inspect(val, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if base, ok := pkg.Info.Types[sel.X]; ok && namedOrPtr(base.Type) == named {
						if shape.counters[sel.Sel.Name] {
							fieldRefs = append(fieldRefs, sel.Sel.Name)
						}
					}
					return true
				})
			}
			if name == "" {
				continue
			}
			if shape.tableNames[name] {
				pass.Reportf(entry.Pos(), "fieldTable declares duplicate metric name %q", name)
			}
			shape.tableNames[name] = true
			for _, fr := range fieldRefs {
				if fieldsSeen[fr] {
					pass.Reportf(entry.Pos(), "fieldTable references Set field %s more than once", fr)
				}
				fieldsSeen[fr] = true
			}
		}
		var missing []string
		for fname := range shape.counters {
			if !fieldsSeen[fname] {
				missing = append(missing, fname)
			}
		}
		sort.Strings(missing) // deterministic diagnostic order
		for _, fname := range missing {
			pass.Reportf(litPos, "Set field %s is missing from fieldTable; Snapshot will not capture it", fname)
		}
		shapes = append(shapes, shape)
	}
	return shapes
}

// collectCounters records the counter-like fields of st, following the
// package's own embedded structs: a Set may group the counters that
// tick together into embedded records (the striped ledgers of
// internal/metrics), and a promoted field is as much a field of Set —
// and as easily left out of fieldTable — as a direct one.
func collectCounters(tpkg *types.Package, st *types.Struct, into map[string]bool) {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isCounterLike(tpkg, f.Type()) {
			into[f.Name()] = true
			continue
		}
		if !f.Embedded() {
			continue
		}
		if n := namedOrPtr(f.Type()); n != nil && n.Obj().Pkg() == tpkg {
			if est, ok := n.Underlying().(*types.Struct); ok {
				collectCounters(tpkg, est, into)
			}
		}
	}
}

// findTableLiteral returns the composite literal assigned to the
// package-level fieldTable var.
func findTableLiteral(pkg *Package, tableVar *types.Var) (*ast.CompositeLit, token.Pos) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, nm := range vs.Names {
					if pkg.Info.Defs[nm] != tableVar || i >= len(vs.Values) {
						continue
					}
					if cl, ok := ast.Unparen(vs.Values[i]).(*ast.CompositeLit); ok {
						return cl, cl.Pos()
					}
				}
			}
		}
	}
	return nil, 0
}

// isCounterLike reports whether t is a Counter/Gauge/HighWater-style
// type declared in tpkg (a named struct whose name ends in Counter,
// Gauge or HighWater, or exactly those names).
func isCounterLike(tpkg *types.Package, t types.Type) bool {
	n := namedOrPtr(t)
	if n == nil || n.Obj().Pkg() != tpkg {
		return false
	}
	name := n.Obj().Name()
	return name == "Counter" || name == "Gauge" || name == "HighWater" ||
		strings.HasSuffix(name, "Counter") || strings.HasSuffix(name, "Gauge") ||
		strings.HasSuffix(name, "HighWater")
}

// checkMetricsUses enforces the hoisted-handle rule and Get-name
// validity in one package.
func checkMetricsUses(pass *Pass, pkg *Package, shapes map[*types.Package]*metricsShape) {
	shapeOf := func(t types.Type) *metricsShape {
		n := namedOrPtr(t)
		if n == nil || n.Obj().Pkg() == nil {
			return nil
		}
		return shapes[n.Obj().Pkg()]
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Inc", "Dec", "Add", "AddAt", "Sub", "Observe":
				tv, ok := pkg.Info.Types[sel.X]
				if !ok {
					return true
				}
				shape := shapeOf(tv.Type)
				if shape == nil || !isCounterLike(shape.pkg.Types, tv.Type) {
					return true
				}
				// The shape package itself maintains its counters through
				// whatever plumbing it likes (Snapshot getters, Diff).
				if pkg == shape.pkg {
					return true
				}
				if hasCall(sel.X) {
					pass.Reportf(call.Pos(),
						"metric mutated through a call chain; hoist the %s handle out of the hot path",
						sel.Sel.Name)
				}
			case "Get":
				tv, ok := pkg.Info.Types[sel.X]
				if !ok {
					return true
				}
				n := namedOrPtr(tv.Type)
				if n == nil || n.Obj().Name() != "Snapshot" {
					return true
				}
				shape := shapeOf(tv.Type)
				if shape == nil || len(call.Args) != 1 {
					return true
				}
				atv, ok := pkg.Info.Types[call.Args[0]]
				if !ok || atv.Value == nil || atv.Value.Kind() != constant.String {
					return true
				}
				name := constant.StringVal(atv.Value)
				if !shape.tableNames[name] {
					pass.Reportf(call.Args[0].Pos(),
						"Snapshot.Get(%q): no such metric in fieldTable", name)
				}
			}
			return true
		})
	}
}

// hasCall reports whether the expression contains any call — the
// signature of a handle re-fetched on every mutation.
func hasCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
			return false
		}
		return true
	})
	return found
}
