package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture returns the -mod argument for one of internal/lint's
// testdata trees.
func fixture(t *testing.T, name string) string {
	t.Helper()
	p := filepath.Join("..", "..", "internal", "lint", "testdata", "src", name)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	return p
}

// TestExitCodeContract pins the documented contract: 0 clean, 1 when
// unsuppressed findings exist, 2 on load or usage errors.
func TestExitCodeContract(t *testing.T) {
	t.Run("clean is 0", func(t *testing.T) {
		var out, errb bytes.Buffer
		if code := run([]string{"-mod", fixture(t, "clean")}, &out, &errb); code != 0 {
			t.Fatalf("exit = %d, want 0; stderr:\n%s", code, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("clean run produced output:\n%s", out.String())
		}
	})

	t.Run("findings are 1", func(t *testing.T) {
		var out, errb bytes.Buffer
		if code := run([]string{"-mod", fixture(t, "floatcmp")}, &out, &errb); code != 1 {
			t.Fatalf("exit = %d, want 1; stderr:\n%s", code, errb.String())
		}
		if out.Len() == 0 {
			t.Error("findings run printed nothing to stdout")
		}
		if !strings.Contains(errb.String(), "finding(s)") {
			t.Errorf("stderr missing summary line:\n%s", errb.String())
		}
	})

	t.Run("load error is 2", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte("package broken\nfunc oops() { undefined(\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		if code := run([]string{"-mod", dir}, &out, &errb); code != 2 {
			t.Fatalf("exit = %d, want 2; stderr:\n%s", code, errb.String())
		}
	})

	t.Run("bad format is 2", func(t *testing.T) {
		var out, errb bytes.Buffer
		if code := run([]string{"-format", "bogus"}, &out, &errb); code != 2 {
			t.Fatalf("exit = %d, want 2", code)
		}
	})

	t.Run("unknown analyzer is 2", func(t *testing.T) {
		var out, errb bytes.Buffer
		if code := run([]string{"-run", "nosuch"}, &out, &errb); code != 2 {
			t.Fatalf("exit = %d, want 2", code)
		}
	})
}

// TestGithubFormat checks the workflow-command encoding.
func TestGithubFormat(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-mod", fixture(t, "floatcmp"), "-format", "github"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("github format printed nothing")
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "::error file=") {
			t.Errorf("line is not a workflow command: %q", line)
		}
		if !strings.Contains(line, ",title=epoc-lint/") {
			t.Errorf("line missing analyzer title: %q", line)
		}
	}
}

func TestGithubEscape(t *testing.T) {
	got := githubEscape("50% of\nlines\r")
	want := "50%25 of%0Alines%0D"
	if got != want {
		t.Fatalf("githubEscape = %q, want %q", got, want)
	}
}
