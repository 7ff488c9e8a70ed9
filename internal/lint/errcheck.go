package lint

import (
	"go/ast"
	"go/types"
)

// Errcheck flags calls to in-module functions whose error or trailing
// (..., ok) result is silently dropped: a bare call statement, or a
// go/defer of such a call. The bug it guards against has shipped
// before: a caller that ignores the ok of synth.SynthesizeOutcome's
// (circuit, ok, err) keeps an out-of-threshold circuit instead of the
// block's fallback, and Stats.SynthFallback never counts. Stdlib
// calls are out of scope (go vet and convention cover fmt.Println and
// friends); the module's own APIs return error/ok for control-flow
// reasons and dropping them is always a bug or needs a written
// justification.
//
// Explicit discards (`_ = f()`, `v, _ := f()`) are allowed: the
// blank identifier is the visible, reviewable form of "I mean it".
var Errcheck = &Analyzer{
	Name: "errcheck",
	Doc:  "flags discarded error and (..., ok) results from in-module calls",
	Run:  runErrcheck,
}

func runErrcheck(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			verb := ""
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
			case *ast.GoStmt:
				call, verb = n.Call, "go "
			case *ast.DeferStmt:
				call, verb = n.Call, "defer "
			default:
				return true
			}
			if call == nil {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || fn.Pkg() == nil || !p.Module.InModule(fn.Pkg().Path()) {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Results().Len() == 0 {
				return true
			}
			res := sig.Results()
			for i := 0; i < res.Len(); i++ {
				if isErrorType(res.At(i).Type()) {
					p.Reportf(call.Pos(), "%serror returned by %s is not checked; handle it or discard with `_ =` and a comment", verb, fn.FullName())
					return true
				}
			}
			if last := res.At(res.Len() - 1); isBoolType(last.Type()) {
				p.Reportf(call.Pos(), "%s(..., %s bool) result of %s is discarded; the ok flag signals fallback/miss and must be consumed", verb, resultName(last), fn.FullName())
			}
			return true
		})
	}
}

func isErrorType(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	return ok && iface.NumMethods() == 1 && iface.Method(0).Name() == "Error" &&
		types.Identical(t, types.Universe.Lookup("error").Type())
}

func isBoolType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

func resultName(v *types.Var) string {
	if v.Name() != "" {
		return v.Name()
	}
	return "ok"
}
