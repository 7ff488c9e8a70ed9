package pulse

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"epoc/internal/linalg"
)

// TestLibraryCanonicalEntry: two pulses stored for one unitary (two
// concurrent compiles that both missed) leave one entry, the same one
// in either order: the shorter pulse, then the fixed content order.
// The replacement is logged; the replaced entry is not exported again.
func TestLibraryCanonicalEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	u := linalg.RandomUnitary(4, rng)
	phased := u.Scale(cmplx.Exp(complex(0, 0.7)))
	amps := func(a float64) [][]float64 { return [][]float64{{0.1, a}, {0.2, 0}} }
	cases := []struct {
		name        string
		worse, best *Pulse
	}{
		{"shorter", &Pulse{Label: "u", Duration: 204, Fidelity: 0.9995}, &Pulse{Label: "u", Duration: 188, Fidelity: 0.9991}},
		{"fidelity", &Pulse{Label: "u", Duration: 188, Fidelity: 0.9991}, &Pulse{Label: "u", Duration: 188, Fidelity: 0.9995}},
		{"slots", &Pulse{Label: "u", Duration: 188, Fidelity: 0.999, Slots: 2, Amps: amps(0)}, &Pulse{Label: "u", Duration: 188, Fidelity: 0.999, Slots: 1, Amps: amps(0)[:1]}},
		{"amps", &Pulse{Label: "u", Duration: 188, Fidelity: 0.999, Slots: 2, Amps: amps(0.3)}, &Pulse{Label: "u", Duration: 188, Fidelity: 0.999, Slots: 2, Amps: amps(-0.3)}},
		{"label", &Pulse{Label: "v", Duration: 188, Fidelity: 0.999}, &Pulse{Label: "u", Duration: 188, Fidelity: 0.999}},
	}
	for _, tc := range cases {
		for _, order := range [][2]*Pulse{{tc.worse, tc.best}, {tc.best, tc.worse}} {
			lib := NewLibrary(true)
			lib.Store(u, order[0])
			lib.Store(phased, order[1])
			if got, _ := lib.Lookup(u); got != tc.best || lib.Len() != 1 {
				t.Fatalf("%s: kept %+v (%d entries), want %+v alone", tc.name, got, lib.Len(), tc.best)
			}
			if ex := lib.Export(); len(ex) != 1 || ex[0].P != tc.best {
				t.Fatalf("%s: Export holds %d entries", tc.name, len(ex))
			}
			es, end := lib.ExportSince(0)
			if len(es) != 1 || es[0].P != tc.best {
				t.Fatalf("%s: ExportSince(0) gives %d entries", tc.name, len(es))
			}
			// The replacement, when there is one, is logged after the
			// first entry, so a harvest that already took the first
			// still sees it.
			if wantEnd := map[bool]int{true: 2, false: 1}[order[0] == tc.worse]; end != wantEnd {
				t.Fatalf("%s: log end %d, want %d", tc.name, end, wantEnd)
			}
			// Re-importing either pulse changes nothing.
			if lib.Import(u, tc.worse) || lib.Import(u, tc.best) {
				t.Fatalf("%s: re-import changed the library", tc.name)
			}
			if _, again := lib.ExportSince(0); again != end {
				t.Fatalf("%s: re-import logged an entry", tc.name)
			}
		}
	}
}

// TestLibraryExportSince: positions resume where the last export
// stopped, so each entry is exported once.
func TestLibraryExportSince(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	lib := NewLibrary(true)
	pos := 0
	for round, n := range []int{3, 0, 2} {
		for i := 0; i < n; i++ {
			lib.Store(linalg.RandomUnitary(4, rng), mk("u", 100))
		}
		es, end := lib.ExportSince(pos)
		if len(es) != n || end != pos+n {
			t.Fatalf("round %d: %d entries, end %d; want %d, %d", round, len(es), end, n, pos+n)
		}
		pos = end
	}
	if lib.Len() != 5 {
		t.Fatalf("Len = %d", lib.Len())
	}
}

// TestLibraryExportSnapshotShared: Export builds its sorted snapshot
// once per change; callers share it until a Put or Import changes the
// library.
func TestLibraryExportSnapshotShared(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lib := NewLibrary(true)
	if lib.Export() != nil {
		t.Fatal("empty library exported entries")
	}
	u := linalg.RandomUnitary(4, rng)
	lib.Store(u, mk("u", 100))
	lib.Store(linalg.RandomUnitary(4, rng), mk("v", 100))
	a, b := lib.Export(), lib.Export()
	if len(a) != 2 || &a[0] != &b[0] {
		t.Fatal("Export rebuilt an unchanged snapshot")
	}
	lib.Store(u, mk("u", 150)) // not preferred: no change
	if c := lib.Export(); &c[0] != &a[0] {
		t.Fatal("a dropped Put rebuilt the snapshot")
	}
	lib.Store(linalg.RandomUnitary(4, rng), mk("w", 100))
	c := lib.Export()
	if len(c) != 3 || &c[0] == &a[0] {
		t.Fatal("Export did not rebuild after a Put")
	}
	for i := 1; i < len(c); i++ {
		if lib.Key(c[i-1].U).s > lib.Key(c[i].U).s {
			t.Fatal("snapshot is not in key order")
		}
	}
}

// TestRawKeyMatchesFmtForm: without global-phase matching a key is the
// raw entries at five decimals, as it was written with fmt's "%.5f".
// The values are random unitaries, exact ties of the fifth decimal
// (odd multiples of 1/64) with their neighbours, signed zeros and
// negatives that round to zero.
func TestRawKeyMatchesFmtForm(t *testing.T) {
	fmtKey := func(u *linalg.Matrix) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%dx%d:", u.Rows, u.Cols)
		for _, v := range u.Data {
			fmt.Fprintf(&b, "%.5f,%.5f;", real(v), imag(v))
		}
		return b.String()
	}
	lib := NewLibrary(false)
	rng := rand.New(rand.NewSource(6))
	var us []*linalg.Matrix
	for _, d := range []int{2, 4, 8} {
		for i := 0; i < 20; i++ {
			us = append(us, linalg.RandomUnitary(d, rng))
		}
	}
	negZero := math.Copysign(0, -1)
	for k := 1; k < 64*4; k += 2 {
		x := float64(k) / 64
		lo, hi := math.Nextafter(x, 0), math.Nextafter(x, 4)
		u := linalg.NewMatrix(2, 2)
		u.Data[0], u.Data[1] = complex(x, -x), complex(lo, -hi)
		u.Data[2], u.Data[3] = complex(-lo, hi), complex(negZero, -4e-6)
		us = append(us, u)
	}
	for i, u := range us {
		if got, want := lib.Key(u).s, fmtKey(u); got != want {
			t.Fatalf("matrix %d: key %q, fmt form %q", i, got, want)
		}
	}
}
