package kernel

import "testing"

func TestWorkspaceTakeZeroesAndReuses(t *testing.T) {
	w := NewWorkspace()
	m := w.Mark()
	s1 := w.TakeComplex(8)
	for i := range s1 {
		s1[i] = complex(float64(i), 1)
	}
	w.Rewind(m)
	s2 := w.TakeComplex(8)
	if &s1[0] != &s2[0] {
		t.Fatalf("rewind did not reuse the arena region")
	}
	for i, v := range s2 {
		if v != 0 {
			t.Fatalf("reused slice not zeroed at %d: %v", i, v)
		}
	}
}

func TestWorkspaceGrowthKeepsOldSlicesValid(t *testing.T) {
	w := NewWorkspace()
	small := w.TakeComplex(4)
	small[0] = 42
	// Force a growth well past the initial block.
	big := w.TakeComplex(1 << 16)
	big[0] = 7
	if small[0] != 42 {
		t.Fatalf("growth corrupted an earlier checkout: %v", small[0])
	}
	// A mark from the old epoch must not let the new epoch hand out
	// overlapping memory.
	m := w.Mark()
	s1 := w.TakeComplex(16)
	s1[0] = 1
	w.Rewind(m)
	s2 := w.TakeComplex(16)
	if &s1[0] != &s2[0] {
		t.Fatalf("same-epoch rewind should reuse the region")
	}
}

func TestWorkspaceNilSafe(t *testing.T) {
	var w *Workspace
	m := w.Mark()
	s := w.TakeComplex(4)
	if len(s) != 4 {
		t.Fatalf("nil workspace TakeComplex: got len %d", len(s))
	}
	if f := w.TakeFloat(3); len(f) != 3 {
		t.Fatalf("nil workspace TakeFloat: got len %d", len(f))
	}
	if ints := w.TakeInt(2); len(ints) != 2 {
		t.Fatalf("nil workspace TakeInt: got len %d", len(ints))
	}
	w.Rewind(m)
}

func TestWorkspaceStackDiscipline(t *testing.T) {
	w := NewWorkspace()
	outer := w.TakeComplex(4)
	outer[3] = 9
	m := w.Mark()
	inner := w.TakeComplex(4)
	inner[0] = 5
	w.Rewind(m)
	if outer[3] != 9 {
		t.Fatalf("inner rewind touched outer frame")
	}
	again := w.TakeComplex(4)
	if &again[0] != &inner[0] {
		t.Fatalf("rewind should make the inner frame reusable")
	}
}
