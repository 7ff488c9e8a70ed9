package report

import (
	"strings"
	"testing"

	"epoc/internal/obs"
)

func TestRenderSnapshot(t *testing.T) {
	r := obs.New()
	r.Span("stage/synth").End()
	r.Add("library/hits", 9)
	r.Observe("qoc/grape/iterations", 120)
	r.Event("qoc/grape", "slots=48 stop=target")

	out := RenderSnapshot(r.Snapshot())
	for _, want := range []string{
		"timers (hottest first)", "stage/synth",
		"counters", "library/hits", "9",
		"distributions", "qoc/grape/iterations",
		"events", "slots=48 stop=target",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered snapshot missing %q:\n%s", want, out)
		}
	}
}

// TestRenderSnapshotEventOrderStable pins the -stats byte-stability
// fix: two recorders fed the same events in different orders (as
// concurrent QOC workers would) must render identical bytes.
func TestRenderSnapshotEventOrderStable(t *testing.T) {
	events := []string{"slots=48 stop=target", "slots=24 stop=target", "slots=36 stop=max_iter"}
	render := func(order []int) string {
		r := obs.New()
		r.Add("compiles", 1)
		for _, i := range order {
			r.Event("qoc/grape", events[i])
		}
		return RenderSnapshot(r.Snapshot())
	}
	a := render([]int{0, 1, 2})
	b := render([]int{2, 0, 1})
	if a != b {
		t.Fatalf("rendered output depends on event insertion order:\n%s\nvs\n%s", a, b)
	}
}

func TestRenderSnapshotNil(t *testing.T) {
	if got := RenderSnapshot(nil); got != "" {
		t.Fatalf("nil snapshot rendered %q", got)
	}
}
