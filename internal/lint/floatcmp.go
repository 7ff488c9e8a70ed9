package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Floatcmp flags ==, != and switch on float or complex operands.
// EPOC's correctness story (paper §3.3–§3.4) compares unitaries only
// up to global phase and only with explicit tolerances; a raw float
// equality silently breaks phase-keyed caching the moment a value is
// recomputed along a different (but mathematically equal) path.
//
// Exemptions:
//   - x != x / x == x on the same side-effect-free expression (the
//     IEEE-754 NaN probe);
//   - comparisons where both operands are compile-time constants;
//   - bodies of the tolerance/fingerprint kernels listed in
//     floatcmpAllowed — the functions whose whole job is to define
//     what "equal" means, so raw comparisons there are the point.
var Floatcmp = &Analyzer{
	Name: "floatcmp",
	Doc:  "flags ==/!=/switch on float64/complex128 operands outside tolerance helpers",
	Run:  runFloatcmp,
}

// floatcmpAllowed lists the fully qualified functions allowed to
// compare floats exactly: the global-phase/tolerance kernels and the
// quantized fingerprint constructors they feed. Methods use the
// types.Func.FullName form, e.g. "(*epoc/internal/synth.Cache).get".
var floatcmpAllowed = map[string]bool{
	// Tolerance / global-phase kernels: these functions define what
	// "equal" means for everyone else (paper §3.3–§3.4), so their raw
	// comparisons are the specification, not a bug.
	"epoc/internal/linalg.PhaseDistance":  true,
	"epoc/internal/linalg.canonicalPhase": true,
	"epoc/internal/linalg.Fingerprint":    true,
	// ZX phase predicates compare values already snapped by normPhase
	// (exactly 0 within phaseTol), so == on the canonical form is exact.
	"epoc/internal/zx.normPhase":    true,
	"epoc/internal/zx.phaseIsZero":  true,
	"epoc/internal/zx.phaseIsPauli": true,
	// Zero-value config defaulting: 0 is the documented "unset"
	// sentinel of these option structs, and only a literal zero value
	// (never a computed float) reaches the comparison.
	"(*epoc/internal/core.Options).withDefaults": true,
	"(*epoc/internal/opt.LBFGSConfig).defaults":  true,
	"(*epoc/internal/qoc.GRAPEConfig).defaults":  true,
	"(*epoc/internal/qoc.ModelOptions).defaults": true,
}

func runFloatcmp(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok {
				// Package-level initializers etc. are never allowlisted.
				if _, isDecl := n.(*ast.GenDecl); isDecl {
					checkFloatCmps(p, n)
					return false
				}
				return true
			}
			if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok && floatcmpAllowed[obj.FullName()] {
				return false
			}
			if fd.Body != nil {
				checkFloatCmps(p, fd.Body)
			}
			return false
		})
	}
}

func checkFloatCmps(p *Pass, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return true
			}
			kind := floatyKind(p, n.X)
			if kind == "" {
				kind = floatyKind(p, n.Y)
			}
			if kind == "" {
				return true
			}
			if isConst(p, n.X) && isConst(p, n.Y) {
				return true // folded at compile time
			}
			if n.Op == token.NEQ || n.Op == token.EQL {
				if samePureExpr(n.X, n.Y) {
					return true // NaN probe: x != x
				}
			}
			p.Reportf(n.OpPos, "%s values compared with %s; use a tolerance helper such as linalg.PhaseDistance or an explicit epsilon", kind, n.Op)
		case *ast.SwitchStmt:
			if n.Tag == nil {
				return true
			}
			if kind := floatyKind(p, n.Tag); kind != "" {
				p.Reportf(n.Tag.Pos(), "switch on %s value; case equality on floats is exact — compare with an explicit tolerance instead", kind)
			}
		}
		return true
	})
}

// floatyKind returns the basic float/complex kind name of e's type, or
// "" if the comparison is not floating-point.
func floatyKind(p *Pass, e ast.Expr) string {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return ""
	}
	switch b.Kind() {
	case types.Float32, types.Float64, types.Complex64, types.Complex128,
		types.UntypedFloat, types.UntypedComplex:
		return b.Name()
	}
	return ""
}

func isConst(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

// samePureExpr reports whether a and b are the same side-effect-free
// identifier/selector chain, the shape of the x != x NaN idiom.
func samePureExpr(a, b ast.Expr) bool {
	pa, oka := purePath(a)
	pb, okb := purePath(b)
	return oka && okb && pa == pb
}

func purePath(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := purePath(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.ParenExpr:
		return purePath(e.X)
	}
	return "", false
}
