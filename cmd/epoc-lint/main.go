// Command epoc-lint runs the project's static-analysis suite
// (internal/lint) over the module — the numerical, concurrency and
// hot-path invariants EPOC's correctness claims depend on but neither
// the compiler nor go vet can check: floatcmp, globalrand, layering,
// errcheck, ctxflow, spanend, and the dataflow analyzers maporder,
// lockguard, goleak and allochot. See DESIGN.md §8 for the analyzer
// catalog and the //epoc:lint-ignore suppression syntax, and §13 for
// the CFG/call-graph layer.
//
// Usage:
//
//	epoc-lint [flags] [./...|./internal/synth|...]
//
// The -format flag selects the output encoding:
//
//	text    one finding per line, file:line:col: analyzer: message (default)
//	github  GitHub Actions workflow commands (::error ...), so CI runs
//	        annotate the offending lines in the diff view
//
// Exit status: 0 when clean, 1 when any unsuppressed finding exists,
// 2 when the module fails to load or the flags are invalid.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"epoc/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, stdio, exit code) made
// explicit so the exit-code contract is testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("epoc-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list       = fs.Bool("list", false, "list analyzers and exit")
		runList    = fs.String("run", "", "comma-separated analyzers to run (default: all)")
		suppressed = fs.Bool("suppressed", false, "also print suppressed findings with their reasons (text format)")
		format     = fs.String("format", "text", "output format: text or github")
		modDir     = fs.String("mod", "", "module root to lint (default: walk up from cwd to go.mod); a tree without go.mod is compiled as module \"epoc\", which is how the testdata fixtures run")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: epoc-lint [flags] [patterns]\n\npatterns are ./... (default) or ./<dir> prefixes relative to the module root\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	switch *format {
	case "text", "github":
	default:
		fmt.Fprintf(stderr, "epoc-lint: unknown -format %q (want text or github)\n", *format)
		return 2
	}

	analyzers := lint.All()
	if *runList != "" {
		var err error
		analyzers, err = lint.ByName(*runList)
		if err != nil {
			fmt.Fprintln(stderr, "epoc-lint:", err)
			return 2
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "epoc-lint:", err)
		return 2
	}
	var root, modPath string
	if *modDir != "" {
		root, err = filepath.Abs(*modDir)
		if err != nil {
			fmt.Fprintln(stderr, "epoc-lint:", err)
			return 2
		}
		if r, mp, err := lint.FindModuleRoot(root); err == nil && r == root {
			modPath = mp
		} else {
			modPath = "epoc" // fixture trees carry no go.mod
		}
	} else {
		root, modPath, err = lint.FindModuleRoot(cwd)
		if err != nil {
			fmt.Fprintln(stderr, "epoc-lint:", err)
			return 2
		}
	}
	mod, err := lint.LoadModule(root, modPath)
	if err != nil {
		fmt.Fprintln(stderr, "epoc-lint:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var (
		findings            []lint.Finding
		failed, nSuppressed int
	)
	for _, f := range lint.Run(mod, analyzers) {
		if !matchesPatterns(root, f.Pos.Filename, patterns) {
			continue
		}
		if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			f.Pos.Filename = rel
		}
		if f.Suppressed {
			nSuppressed++
		} else {
			failed++
		}
		findings = append(findings, f)
	}

	switch *format {
	case "github":
		for _, f := range findings {
			if f.Suppressed {
				continue
			}
			// ::error annotations render on the offending line in the PR
			// diff. Messages must have newlines and special chars escaped
			// per the workflow-command grammar.
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=epoc-lint/%s::%s\n",
				f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, githubEscape(f.Message))
		}
	default: // text
		for _, f := range findings {
			if f.Suppressed {
				if *suppressed {
					fmt.Fprintf(stdout, "%s:%d:%d: %s: suppressed (%s): %s\n", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Reason, f.Message)
				}
				continue
			}
			fmt.Fprintln(stdout, f)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "epoc-lint: %d finding(s) (%d suppressed)\n", failed, nSuppressed)
		return 1
	}
	return 0
}

// githubEscape encodes a workflow-command message per the Actions
// grammar: % first, then newlines.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// matchesPatterns reports whether filename (absolute) falls under any
// of the go-style patterns, resolved relative to the module root.
func matchesPatterns(root, filename string, patterns []string) bool {
	rel, err := filepath.Rel(root, filename)
	if err != nil {
		return false
	}
	rel = filepath.ToSlash(filepath.Dir(rel))
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "..." || pat == "." {
			return true
		}
		if suffix, ok := strings.CutSuffix(pat, "/..."); ok {
			if rel == suffix || strings.HasPrefix(rel, suffix+"/") {
				return true
			}
			continue
		}
		if rel == pat {
			return true
		}
	}
	return false
}
