package report

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 22)
	out := tb.String()
	for _, want := range []string{"== demo ==", "name", "alpha", "1.50", "22"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Alignment: all lines after the title share a prefix width.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("unexpected line count %d", len(lines))
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x")
	if strings.Contains(tb.String(), "==") {
		t.Fatal("title rendered for empty title")
	}
}

func TestPercentChange(t *testing.T) {
	if got := PercentChange(200, 100); got != 50 {
		t.Fatalf("PercentChange = %v", got)
	}
	if got := PercentChange(0, 100); got != 0 {
		t.Fatalf("zero baseline: %v", got)
	}
	if got := PercentChange(100, 150); got != -50 {
		t.Fatalf("regression: %v", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty Mean")
	}
}
