package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Spanend enforces the tracing contract: a span handle — a
// trace.Region (the pipeline's one handle per instrumented region) or
// a bare *trace.Span — obtained in a function must be ended on every
// path out of it, so the trace never carries open spans whose
// durations silently extend to export time and no obs timer goes
// unrecorded. The only constructs that guarantee every-path coverage
// are
//
//	sp := parent.Child("...")
//	defer sp.End()
//
// (directly, or inside a deferred function literal), so a span-typed
// local assigned from a call without one is a finding — a plain
// sp.End() statement misses early returns and panics. Spans that
// escape the function (returned, passed to a call, stored in a field,
// placed in a composite literal) hand their lifetime to the caller and
// are not flagged; internal/trace itself, which constructs spans and
// regions, is skipped.
var Spanend = &Analyzer{
	Name: "spanend",
	Doc:  "requires defer sp.End() on every locally obtained trace.Region or *trace.Span that does not escape",
	Run:  runSpanend,
}

func runSpanend(p *Pass) {
	if p.Module.relPath(p.Pkg.Path) == "internal/trace" {
		return
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkSpanUnit(p, fn.Body)
		}
	}
}

// checkSpanUnit analyzes one function body: every span-typed local
// assigned from a call directly in this unit (not in a nested function
// literal, which is its own unit) must be deferred-ended or escape.
// Nested literals are recursed into so per-iteration spans inside
// worker closures get the same check with the closure as their scope.
func checkSpanUnit(p *Pass, body *ast.BlockStmt) {
	walkUnit(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkSpanUnit(p, n.Body)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := p.Info.Defs[id]
				if obj == nil || !isSpanHandle(obj.Type()) {
					continue
				}
				// Only spans freshly obtained from a call (Start, Child,
				// or a chained setter) start a lifetime here; aliasing an
				// existing span does not.
				if i < len(n.Rhs) {
					if _, ok := n.Rhs[i].(*ast.CallExpr); !ok {
						continue
					}
				} else if len(n.Rhs) != 1 {
					continue
				} else if _, ok := n.Rhs[0].(*ast.CallExpr); !ok {
					continue
				}
				if !spanHandled(p, body, obj) {
					p.Reportf(id.Pos(), "span %s is not ended on every path; defer %s.End() right after obtaining it (or let it escape to the owner of its lifetime)", id.Name, id.Name)
				}
			}
		}
	})
}

// walkUnit visits the statements of one function unit, handing nested
// *ast.FuncLit nodes to fn without descending into them — their bodies
// are separate units.
func walkUnit(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == root {
			return true
		}
		fn(n)
		_, isLit := n.(*ast.FuncLit)
		return !isLit
	})
}

// spanHandled reports whether obj's lifetime is covered inside body:
// a defer ends it on every path, or it escapes to a longer-lived
// owner. The whole body (including nested literals) is searched —
// a deferred closure that ends the span counts wherever it appears.
func spanHandled(p *Pass, body *ast.BlockStmt, obj types.Object) bool {
	handled := false
	ast.Inspect(body, func(n ast.Node) bool {
		if handled {
			return false
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			if deferEndsSpan(p, n, obj) {
				handled = true
			}
		case *ast.ReturnStmt:
			if usesObj(p, n, obj) {
				handled = true
			}
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if usesObj(p, arg, obj) {
					handled = true
				}
			}
		case *ast.CompositeLit:
			if usesObj(p, n, obj) {
				handled = true
			}
		case *ast.AssignStmt:
			// A store through a selector or index hands the span to a
			// struct or container that outlives this call.
			rhsUses := false
			for _, rhs := range n.Rhs {
				if usesObj(p, rhs, obj) {
					rhsUses = true
				}
			}
			if rhsUses {
				for _, lhs := range n.Lhs {
					switch lhs.(type) {
					case *ast.SelectorExpr, *ast.IndexExpr:
						handled = true
					}
				}
			}
		}
		return !handled
	})
	return handled
}

// deferEndsSpan reports whether d is `defer sp.End()` or a deferred
// function literal whose body calls sp.End().
func deferEndsSpan(p *Pass, d *ast.DeferStmt, obj types.Object) bool {
	if isEndCall(p, d.Call, obj) {
		return true
	}
	lit, ok := d.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	ends := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isEndCall(p, call, obj) {
			ends = true
		}
		return !ends
	})
	return ends
}

// isEndCall reports whether call is obj.End().
func isEndCall(p *Pass, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && p.Info.Uses[id] == obj
}

// usesObj reports whether the subtree contains a use of obj.
func usesObj(p *Pass, n ast.Node, obj types.Object) bool {
	used := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}

// isSpanHandle reports whether t is trace.Region or *trace.Span for
// this module's internal/trace package.
func isSpanHandle(t types.Type) bool {
	want := "Region"
	if ptr, ok := t.(*types.Pointer); ok {
		t, want = ptr.Elem(), "Span"
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == want && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/trace")
}
