package qoc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"epoc/internal/gate"
	"epoc/internal/linalg"
)

// resultHash digests a GRAPE result bit for bit: the slot count, every
// amplitude's Float64bits in slot-major order, the fidelity's bits, the
// iteration count and the stop error.
func resultHash(r Result) string {
	h := sha256.New()
	var buf [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	word(uint64(len(r.Amps)))
	for _, slot := range r.Amps {
		word(uint64(len(slot)))
		for _, a := range slot {
			word(math.Float64bits(a))
		}
	}
	word(math.Float64bits(r.Fidelity))
	word(uint64(r.Iterations))
	if r.Err != nil {
		h.Write([]byte(r.Err.Error()))
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// grapePinCases are the ascents TestGRAPEPinned digests: every
// dimension with an unrolled kernel (d2, d4, d8), a detuned drift, all
// three stop reasons (target, MaxIter, BudgetIters), a warm start
// through grapeFrom, and slot widths that reach every Padé order.
func grapePinCases() []struct {
	name string
	run  func() Result
} {
	haar := linalg.RandomUnitary(4, rand.New(rand.NewSource(17)))
	return []struct {
		name string
		run  func() Result
	}{
		{"d2/h/target", func() Result {
			return GRAPE(StandardModel(1, ModelOptions{}), gate.New(gate.H).Matrix(), 12, GRAPEConfig{MaxIter: 200})
		}},
		{"d2/h/maxiter", func() Result {
			return GRAPE(StandardModel(1, ModelOptions{}), gate.New(gate.H).Matrix(), 4, GRAPEConfig{MaxIter: 25, Seed: 3})
		}},
		{"d4/cx/target", func() Result {
			return GRAPE(StandardModel(2, ModelOptions{}), gate.New(gate.CX).Matrix(), 48, GRAPEConfig{MaxIter: 300, Target: 0.99})
		}},
		{"d4/haar/maxiter", func() Result {
			return GRAPE(StandardModel(2, ModelOptions{}), haar, 30, GRAPEConfig{MaxIter: 40, Seed: 5})
		}},
		{"d4/haar/detuned", func() Result {
			return GRAPE(StandardModel(2, ModelOptions{Detuning: 0.05}), haar, 30, GRAPEConfig{MaxIter: 30, Seed: 9})
		}},
		{"d4/cx/budget", func() Result {
			return GRAPE(StandardModel(2, ModelOptions{}), gate.New(gate.CX).Matrix(), 40, GRAPEConfig{MaxIter: 300, BudgetIters: 17})
		}},
		{"d4/cx/warm", func() Result {
			m := StandardModel(2, ModelOptions{})
			amps := randSchedule(m, 40, 23)
			return grapeFrom(m, gate.New(gate.CX).Matrix(), amps, GRAPEConfig{MaxIter: 35})
		}},
		{"d8/ccx/maxiter", func() Result {
			return GRAPE(StandardModel(3, ModelOptions{}), gate.New(gate.CCX).Matrix(), 40, GRAPEConfig{MaxIter: 30, Seed: 2})
		}},
		// The default 2 ns slots keep ‖Dt·H‖₁ in the order-3/5 Padé
		// branches. Longer slots reach the others: Dt 8 orders 5 and 7,
		// Dt 40 orders 7 and 9, Dt 300 order 13 with and without scaling.
		{"d4/cx/dt8", func() Result {
			return GRAPE(StandardModel(2, ModelOptions{Dt: 8}), gate.New(gate.CX).Matrix(), 12, GRAPEConfig{MaxIter: 30})
		}},
		{"d2/x/dt40", func() Result {
			return GRAPE(StandardModel(1, ModelOptions{Dt: 40}), gate.New(gate.X).Matrix(), 3, GRAPEConfig{MaxIter: 30})
		}},
		{"d2/x/dt300", func() Result {
			return GRAPE(StandardModel(1, ModelOptions{Dt: 300}), gate.New(gate.X).Matrix(), 3, GRAPEConfig{MaxIter: 30})
		}},
	}
}

// grapePins are the digests of grapePinCases, recorded before the
// slice step's kernels were specialized: any change to the ascent's
// arithmetic, however small, changes one of them.
var grapePins = map[string]string{
	"d2/h/target":     "3582120f8b241656",
	"d2/h/maxiter":    "cff18ceb0dc45ceb",
	"d4/cx/target":    "3baa1f9118621596",
	"d4/haar/maxiter": "bf355c15b9685ddd",
	"d4/haar/detuned": "6cbb0f0f82012dcc",
	"d4/cx/budget":    "3fcd953c5dd0e4f3",
	"d4/cx/warm":      "256a75717271a924",
	"d8/ccx/maxiter":  "dbe334167dd1db7d",
	"d4/cx/dt8":       "b2c0c6b584a51d80",
	"d2/x/dt40":       "359c4427fd7c84f6",
	"d2/x/dt300":      "6f7e635ac29c7f3d",
}

// TestGRAPEPinned: the GRAPE ascent is byte-identical to the pinned
// digests, amplitudes included, on every case.
func TestGRAPEPinned(t *testing.T) {
	cases := grapePinCases()
	if len(grapePins) != len(cases) {
		t.Errorf("%d pinned cases, %d defined", len(grapePins), len(cases))
	}
	for _, c := range cases {
		r := c.run()
		got := resultHash(r)
		if want, ok := grapePins[c.name]; !ok || got != want {
			t.Errorf("%s: digest %q, pinned %q (fid %.6f, iters %d, err %v)", c.name, got, want, r.Fidelity, r.Iterations, r.Err)
		}
	}
}
