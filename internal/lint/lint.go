// Package lint is epoc-lint: a small, pure-stdlib static-analysis
// framework (go/parser + go/types only — no golang.org/x/tools) that
// enforces the project invariants the Go compiler cannot see:
//
//   - unitaries are compared only up to global phase with explicit
//     tolerances, never with raw float/complex equality (floatcmp);
//   - the pipeline is byte-identical at any Workers count, so all
//     randomness flows through injected seeded *rand.Rand values,
//     never math/rand globals or wall-clock seeds (globalrand);
//   - the package import DAG from ARCHITECTURE.md holds — internal/obs,
//     internal/linalg and internal/opt stay leaves, internal/* never
//     reaches cmd/* (layering);
//   - error and (..., ok) results from in-module APIs are never
//     silently dropped (errcheck);
//   - a context.Context accepted by a function actually flows into the
//     work it guards — no unused ctx parameters, no in-module calls
//     handed a fresh context.Background() while the caller's context
//     is in scope (ctxflow);
//   - a *trace.Span obtained in a function is ended on every path out
//     of it: defer sp.End(), or let the span escape to the owner of
//     its lifetime (spanend);
//   - values iterated out of a map never reach an order-sensitive
//     sink — emitted, hashed, compared — without an intervening sort
//     (maporder);
//   - struct fields tied to a mutex, by a `// guards:` comment or the
//     mu-adjacency idiom in the shared-state packages, are only
//     touched while the mutex is held (lockguard);
//   - every spawned goroutine has a join path: WaitGroup Done, a
//     channel send/close, or a ctx-cancel edge (goleak);
//   - functions annotated //epoc:hot do not allocate inside their
//     loops (allochot).
//
// Lock copies are not on the list: go vet's copylocks pass (make vet)
// already flags every by-value copy of a struct holding a sync lock.
//
// The last four are flow-sensitive: they run over a per-function
// control-flow graph (cfg.go) and a module-level call graph
// (callgraph.go), both built from the same pure-stdlib loader.
//
// Findings may be suppressed, one site at a time and with a mandatory
// reason, by a comment on the offending line or the line above:
//
//	//epoc:lint-ignore <analyzer> <reason>
//
// A malformed ignore (missing reason, unknown analyzer name) is itself
// a finding, so suppressions cannot rot silently. The suite runs from
// `make lint`, from CI, and from the self-check test in this package,
// which keeps the repository permanently lint-clean.
//
// DESIGN.md §8 documents the analyzer catalog and how to add one;
// §13 documents the CFG/call-graph layer under the dataflow analyzers.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a single type-checked
// package via the Pass and reports findings; it must not mutate the
// loaded module.
type Analyzer struct {
	Name string // short lowercase identifier used in findings and ignores
	Doc  string // one-line description shown by epoc-lint -list
	Run  func(*Pass)
}

// Pass is the per-(analyzer, package) view handed to Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Module   *Module  // whole-module view (layering needs the DAG)
	Pkg      *Package // the package under analysis
	Fset     *token.FileSet
	Files    []*ast.File // the package's non-test files
	Types    *types.Package
	Info     *types.Info

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Analyzer   string
	Pos        token.Position
	Message    string
	Suppressed bool   // an //epoc:lint-ignore comment covers it
	Reason     string // the ignore's reason, when suppressed
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// All returns the full epoc-lint suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Floatcmp, Globalrand, Layering, Errcheck, Ctxflow, Spanend, Maporder, Lockguard, Goleak, Allochot}
}

// ByName resolves a comma-separated analyzer list ("floatcmp,layering")
// against the full suite.
func ByName(list string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, strings.Join(Names(), ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty analyzer list")
	}
	return out, nil
}

// Names lists every analyzer in the suite.
func Names() []string {
	var ns []string
	for _, a := range All() {
		ns = append(ns, a.Name)
	}
	return ns
}

// ignoreRe matches the suppression syntax. The reason group is
// mandatory: an ignore without a reason is reported as malformed.
var ignoreRe = regexp.MustCompile(`^//epoc:lint-ignore\s+([a-z][a-z0-9-]*)(?:\s+(\S.*))?$`)

// ignore is one parsed //epoc:lint-ignore comment.
type ignore struct {
	analyzer string
	reason   string
	pos      token.Position
}

// Run executes the analyzers over every package in the module (in
// deterministic import-path order) and returns all findings, sorted by
// position. Findings covered by a well-formed ignore comment on the
// same line or the line directly above are returned with Suppressed
// set rather than dropped, so callers can audit suppressions.
// Malformed ignores are appended as findings of the pseudo-analyzer
// "lint".
func Run(m *Module, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range m.Sorted() {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Module:   m,
				Pkg:      pkg,
				Fset:     m.Fset,
				Files:    pkg.Files,
				Types:    pkg.Types,
				Info:     pkg.Info,
				findings: &findings,
			}
			a.Run(pass)
		}
	}

	ignores, malformed := collectIgnores(m)
	findings = append(findings, malformed...)
	for i := range findings {
		f := &findings[i]
		for _, ig := range ignores[f.Pos.Filename] {
			if ig.analyzer != f.Analyzer {
				continue
			}
			if ig.pos.Line == f.Pos.Line || ig.pos.Line == f.Pos.Line-1 {
				f.Suppressed = true
				f.Reason = ig.reason
				break
			}
		}
	}

	sort.SliceStable(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// collectIgnores scans every file's comments for suppression
// directives. It returns well-formed ignores keyed by filename, plus
// findings for malformed ones (missing reason, unknown analyzer).
func collectIgnores(m *Module) (map[string][]ignore, []Finding) {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	byFile := map[string][]ignore{}
	var malformed []Finding
	for _, pkg := range m.Sorted() {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, "//epoc:lint-ignore") {
						continue
					}
					pos := m.Fset.Position(c.Pos())
					mm := ignoreRe.FindStringSubmatch(c.Text)
					switch {
					case mm == nil:
						malformed = append(malformed, Finding{
							Analyzer: "lint",
							Pos:      pos,
							Message:  "malformed ignore: want //epoc:lint-ignore <analyzer> <reason>",
						})
					case mm[2] == "":
						malformed = append(malformed, Finding{
							Analyzer: "lint",
							Pos:      pos,
							Message:  fmt.Sprintf("ignore for %q is missing the mandatory reason", mm[1]),
						})
					case !known[mm[1]]:
						malformed = append(malformed, Finding{
							Analyzer: "lint",
							Pos:      pos,
							Message:  fmt.Sprintf("ignore names unknown analyzer %q (have %s)", mm[1], strings.Join(Names(), ", ")),
						})
					default:
						byFile[pos.Filename] = append(byFile[pos.Filename], ignore{
							analyzer: mm[1],
							reason:   mm[2],
							pos:      pos,
						})
					}
				}
			}
		}
	}
	return byFile, malformed
}
