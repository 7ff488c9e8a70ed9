package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the quoted expectation regexps from a
// `// want "..."` comment, x/tools analysistest style.
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// TestFixtures runs each analyzer over its own mini-module under
// testdata/src/<name>/ and checks the findings against the fixtures'
// want comments: every finding must match a want on its line, every
// want must be claimed by a finding.
func TestFixtures(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", name)
			if _, err := os.Stat(dir); err != nil {
				t.Fatalf("analyzer %s has no fixture directory: %v", name, err)
			}
			mod, err := LoadModule(dir, "epoc")
			if err != nil {
				t.Fatalf("load fixture: %v", err)
			}
			analyzers, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			findings := unsuppressed(Run(mod, analyzers))
			if len(findings) == 0 {
				t.Errorf("fixture produced no findings; positive cases are missing")
			}
			checkWants(t, mod, findings)
		})
	}
}

// collectWants scans every fixture file for want comments.
func collectWants(t *testing.T, mod *Module) []*want {
	t.Helper()
	var wants []*want
	for _, pkg := range mod.Sorted() {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					pos := mod.Fset.Position(c.Pos())
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return wants
}

func checkWants(t *testing.T, mod *Module, findings []Finding) {
	t.Helper()
	wants := collectWants(t, mod)
	for _, f := range findings {
		text := f.Analyzer + ": " + f.Message
		claimed := false
		for _, w := range wants {
			if w.matched || w.file != f.Pos.Filename || w.line != f.Pos.Line {
				continue
			}
			if w.re.MatchString(text) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want %q matched no finding", w.file, w.line, w.re)
		}
	}
}

// TestIgnoreValidation checks suppression hygiene on the ignores
// fixture: a reasonless ignore, an unknown analyzer name and an
// unparsable directive each yield a "lint" finding, while the
// well-formed ignore silently suppresses its floatcmp target.
func TestIgnoreValidation(t *testing.T) {
	mod, err := LoadModule(filepath.Join("testdata", "src", "ignores"), "epoc")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	findings := Run(mod, All())

	var unsup []string
	for _, f := range unsuppressed(findings) {
		unsup = append(unsup, fmt.Sprintf("%s: %s", f.Analyzer, f.Message))
	}
	wantSubstrings := []string{
		`ignore for "floatcmp" is missing the mandatory reason`,
		`ignore names unknown analyzer "nosuchanalyzer"`,
		`malformed ignore`,
	}
	if len(unsup) != len(wantSubstrings) {
		t.Fatalf("got %d unsuppressed findings, want %d:\n%s", len(unsup), len(wantSubstrings), strings.Join(unsup, "\n"))
	}
	for i, sub := range wantSubstrings {
		if !strings.Contains(unsup[i], sub) {
			t.Errorf("finding %d = %q, want substring %q", i, unsup[i], sub)
		}
	}

	suppressed := 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
			if f.Reason == "" {
				t.Errorf("suppressed finding has no recorded reason: %s", f)
			}
		}
	}
	if suppressed != 1 {
		t.Errorf("got %d suppressed findings, want exactly 1 (the a == b in Clean)", suppressed)
	}
}

func TestByName(t *testing.T) {
	got, err := ByName("floatcmp, layering")
	if err != nil || len(got) != 2 || got[0].Name != "floatcmp" || got[1].Name != "layering" {
		t.Fatalf("ByName = %v, %v", got, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
	if _, err := ByName(""); err == nil {
		t.Fatal("ByName accepted an empty list")
	}
}

func TestFindModuleRoot(t *testing.T) {
	root, modPath, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if modPath != "epoc" {
		t.Fatalf("module path = %q, want epoc", modPath)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("root %s has no go.mod: %v", root, err)
	}
}

// unsuppressed filters Run's output down to the findings that fail a
// lint run.
func unsuppressed(all []Finding) []Finding {
	var out []Finding
	for _, f := range all {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}
