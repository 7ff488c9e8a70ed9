package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"epoc/internal/linalg"
)

// referenceApplyMatrix is the bit-spreading ApplyMatrix the stride
// kernels replaced: for every assignment of the non-target bits it
// rebuilds each of the 2^k amplitude indices bit by bit, gathers them,
// multiplies by u and scatters the result back. It stays here as the
// differential reference: ApplyMatrix must reproduce it amplitude for
// amplitude.
func referenceApplyMatrix(s *State, u *linalg.Matrix, targets []int) {
	k := len(targets)
	dim := 1 << k
	restBits := s.N - k
	sub := make([]complex128, dim)
	out := make([]complex128, dim)
	targetMask := 0
	for _, t := range targets {
		targetMask |= 1 << t
	}
	for rest := 0; rest < 1<<restBits; rest++ {
		base := 0
		bit := 0
		for pos := 0; pos < s.N; pos++ {
			if targetMask&(1<<pos) != 0 {
				continue
			}
			if rest&(1<<bit) != 0 {
				base |= 1 << pos
			}
			bit++
		}
		for i := 0; i < dim; i++ {
			idx := base
			for b, t := range targets {
				if i&(1<<b) != 0 {
					idx |= 1 << t
				}
			}
			sub[i] = s.Amp[idx]
		}
		for i := 0; i < dim; i++ {
			var acc complex128
			row := u.Data[i*dim : (i+1)*dim]
			for j, a := range row {
				acc += a * sub[j]
			}
			out[i] = acc
		}
		for i := 0; i < dim; i++ {
			idx := base
			for b, t := range targets {
				if i&(1<<b) != 0 {
					idx |= 1 << t
				}
			}
			s.Amp[idx] = out[i]
		}
	}
}

// orderedTargets returns every ordered k-tuple of distinct qubits below n.
func orderedTargets(n, k int) [][]int {
	if k == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, head := range orderedTargets(n, k-1) {
		for q := 0; q < n; q++ {
			used := false
			for _, h := range head {
				used = used || h == q
			}
			if !used {
				out = append(out, append(append([]int(nil), head...), q))
			}
		}
	}
	return out
}

func randomAmplitudes(n int, rng *rand.Rand) *State {
	amp := make([]complex128, 1<<n)
	for i := range amp {
		amp[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return FromAmplitudes(amp)
}

// sameAmplitudes compares with complex ==, so the kernels must match
// the reference bit for bit (signed zeros aside).
func sameAmplitudes(got, want *State) error {
	for i := range want.Amp {
		if got.Amp[i] != want.Amp[i] {
			return fmt.Errorf("amplitude %d: %v, reference %v", i, got.Amp[i], want.Amp[i])
		}
	}
	return nil
}

// TestApplyMatrixMatchesReference runs every ordered target tuple of
// k = 1, 2, 3 on 1 to 12 qubits through both implementations.
func TestApplyMatrixMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 1; n <= 12; n++ {
		for k := 1; k <= 3 && k <= n; k++ {
			u := linalg.RandomUnitary(1<<k, rng)
			s0 := randomAmplitudes(n, rng)
			for _, targets := range orderedTargets(n, k) {
				got, want := s0.Clone(), s0.Clone()
				got.ApplyMatrix(u, targets)
				referenceApplyMatrix(want, u, targets)
				if err := sameAmplitudes(got, want); err != nil {
					t.Fatalf("n=%d targets %v: %v", n, targets, err)
				}
			}
		}
	}
}

// TestApplyMatrixWideAndEmpty covers the heap-buffer path (k > 3) and
// the 1×1 matrix on no targets.
func TestApplyMatrixWideAndEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, targets := range [][]int{nil, {3, 0, 5, 1}, {6, 2, 4, 0, 1}} {
		u := linalg.RandomUnitary(1<<len(targets), rng)
		s0 := randomAmplitudes(7, rng)
		got, want := s0.Clone(), s0.Clone()
		got.ApplyMatrix(u, targets)
		referenceApplyMatrix(want, u, targets)
		if err := sameAmplitudes(got, want); err != nil {
			t.Fatalf("targets %v: %v", targets, err)
		}
	}
}

func TestApplyMatrixAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomAmplitudes(8, rng)
	for k := 1; k <= 3; k++ {
		u := linalg.RandomUnitary(1<<k, rng)
		targets := []int{5, 1, 7}[:k]
		if a := testing.AllocsPerRun(20, func() { s.ApplyMatrix(u, targets) }); a != 0 {
			t.Errorf("k=%d: %v allocations per call", k, a)
		}
	}
}

// FuzzApplyMatrix differentially checks ApplyMatrix against the
// reference on fuzzer-chosen widths, target orders, amplitudes and
// matrix entries. Entries are small multiples of 1/64 (so nothing
// overflows), with 0x80 standing for −0.
func FuzzApplyMatrix(f *testing.F) {
	f.Add(uint8(3), uint8(1), int64(0), []byte{1, 2, 3})
	f.Add(uint8(6), uint8(2), int64(9), []byte{0x80, 0, 7, 0xff, 64})
	f.Add(uint8(11), uint8(3), int64(4), []byte{})
	f.Add(uint8(7), uint8(4), int64(1), []byte{12, 0x80, 0x80, 3})
	f.Fuzz(func(t *testing.T, nb, kb uint8, order int64, data []byte) {
		n := 1 + int(nb)%12
		k := 1 + int(kb)%min(4, n)
		perm := rand.New(rand.NewSource(order)).Perm(n)
		targets := perm[:k]
		pos := 0
		next := func() float64 {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			if b == 0x80 {
				return math.Copysign(0, -1)
			}
			return float64(int8(b)) / 64
		}
		u := linalg.NewMatrix(1<<k, 1<<k)
		for i := range u.Data {
			u.Data[i] = complex(next(), next())
		}
		amp := make([]complex128, 1<<n)
		for i := range amp {
			amp[i] = complex(next(), next())
		}
		got := FromAmplitudes(amp)
		want := got.Clone()
		got.ApplyMatrix(u, targets)
		referenceApplyMatrix(want, u, targets)
		if err := sameAmplitudes(got, want); err != nil {
			t.Fatalf("n=%d targets %v: %v", n, targets, err)
		}
	})
}

// BenchmarkApplyMatrix times the stride kernels against the reference
// on 6 to 12 qubits, with the targets spread across the register.
func BenchmarkApplyMatrix(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	impls := []struct {
		name  string
		apply func(*State, *linalg.Matrix, []int)
	}{
		{"kernel", (*State).ApplyMatrix},
		{"reference", referenceApplyMatrix},
	}
	for _, n := range []int{6, 9, 12} {
		for k := 1; k <= 3; k++ {
			u := linalg.RandomUnitary(1<<k, rng)
			targets := []int{n - 1, 0, n / 2}[:k]
			s := randomAmplitudes(n, rng)
			for _, impl := range impls {
				b.Run(fmt.Sprintf("n=%d/k=%d/%s", n, k, impl.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						impl.apply(s, u, targets)
					}
				})
			}
		}
	}
}
