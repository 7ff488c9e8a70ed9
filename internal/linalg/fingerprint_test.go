package linalg_test

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"epoc/internal/benchcirc"
	"epoc/internal/linalg"
	"epoc/internal/partition"
)

// fmtFingerprint is Fingerprint as it was written with fmt. Library
// export order, store harvest order and warm-start candidate order all
// sort by the key, so the strconv form must reproduce it byte for byte.
func fmtFingerprint(u *linalg.Matrix) string {
	snap := func(x float64) float64 {
		if math.Abs(x) < 5e-6 {
			return 0
		}
		return x
	}
	c := linalg.CanonicalPhase(u)
	buf := make([]byte, 0, len(c.Data)*16+8)
	buf = append(buf, fmt.Sprintf("%dx%d:", c.Rows, c.Cols)...)
	for _, v := range c.Data {
		buf = append(buf, fmt.Sprintf("%.5f,%.5f;", snap(real(v)), snap(imag(v)))...)
	}
	return string(buf)
}

func TestFingerprintMatchesFmtForm(t *testing.T) {
	var us []*linalg.Matrix
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 2, 4, 8} {
		for i := 0; i < 20; i++ {
			us = append(us, linalg.RandomUnitary(d, rng))
		}
	}
	// Block unitaries of the corpus, the keys the pipeline really forms.
	for _, name := range benchcirc.AllNames() {
		c, err := benchcirc.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range partition.Partition(c, partition.Options{}) {
			us = append(us, b.Unitary())
		}
	}
	// A dominant real entry keeps the phase fixed, so the small entries
	// reach the snap and the rounding as written: signed zeros, both
	// sides of the 5e-6 threshold, and values that round at the fifth
	// decimal.
	negZero := math.Copysign(0, -1)
	edges := []float64{negZero, 4.9999e-6, -4.9999e-6, 5e-6, -5e-6, 5.0001e-6, -5.0001e-6,
		1.5e-5, -1.5e-5, 0.123455, -0.999995, 1e-300}
	for _, x := range edges {
		for _, y := range edges {
			u := linalg.NewMatrix(2, 2)
			u.Data[0] = 1
			u.Data[1] = complex(x, y)
			u.Data[2] = complex(y, x)
			u.Data[3] = complex(negZero, negZero)
			us = append(us, u)
		}
	}
	us = append(us, linalg.NewMatrix(2, 2))
	for i, u := range us {
		if got, want := linalg.Fingerprint(u), fmtFingerprint(u); got != want {
			t.Fatalf("matrix %d: key %q, fmt form %q", i, got, want)
		}
	}
}

// fixed5Cases are the values where a hand-rounded fifth decimal can
// part from strconv: exact ties (odd multiples of 1/64) and the floats
// on either side of each, both sides of the 5e-6 snap, signed zeros,
// carries into the integer part, powers of ten, the 2e4 hand-off to
// strconv and the non-finite values.
func fixed5Cases() []float64 {
	var xs []float64
	around := func(x float64) {
		xs = append(xs, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
	}
	// Every tie below 2048, then a stride up to the hand-off.
	for k := 1; k < 1<<17; k += 2 {
		around(float64(k) / 64)
	}
	for k := 1 << 17; k < 64*20000+1000; k += 2 * 997 {
		around(float64(k) / 64)
	}
	for _, x := range []float64{0, 5e-6, 4.9999e-6, 5.0001e-6, 1.5e-5, 2.5e-5, 0.123455,
		0.999995, 9.999995, 99.999995, 0.099995, 19999.999995, 2e4, 1e300} {
		around(x)
	}
	for e := -6; e <= 5; e++ {
		around(math.Pow(10, float64(e)))
	}
	var out []float64
	for _, x := range xs {
		out = append(out, x, -x)
	}
	return append(out, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 4e-6, -4e-6, 1e-300, -1e-300)
}

// TestAppendFixed5MatchesStrconv compares the hand-rounded formatter
// with strconv's 'f' at 5 decimals on the edge cases, on random values
// across magnitudes, and on the entries of the corpus block unitaries
// as they are and phase-aligned.
func TestAppendFixed5MatchesStrconv(t *testing.T) {
	xs := fixed5Cases()
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 200000; i++ {
		x := rng.Float64()*4 - 2
		if i%2 == 1 {
			x = math.Copysign(math.Pow(10, rng.Float64()*14-9), x)
		}
		xs = append(xs, x)
	}
	for _, name := range benchcirc.AllNames() {
		c, err := benchcirc.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range partition.Partition(c, partition.Options{}) {
			u := b.Unitary()
			for _, m := range []*linalg.Matrix{u, linalg.CanonicalPhase(u)} {
				for _, v := range m.Data {
					xs = append(xs, real(v), imag(v))
				}
			}
		}
	}
	var buf []byte
	for _, x := range xs {
		buf = linalg.AppendFixed5(buf[:0], x)
		if want := strconv.FormatFloat(x, 'f', 5, 64); string(buf) != want {
			t.Fatalf("AppendFixed5(%v) = %q, strconv %q", x, buf, want)
		}
	}
	// The ties the rule was written for, spelled out.
	for x, want := range map[float64]string{0.015625: "0.01562", 0.046875: "0.04688", -0.000004: "-0.00000", 0.9999951: "1.00000", 9.9999951: "10.00000"} {
		if got := string(linalg.AppendFixed5(nil, x)); got != want {
			t.Errorf("AppendFixed5(%v) = %q, want %q", x, got, want)
		}
	}
}

func BenchmarkFingerprint(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	for _, d := range []int{4, 8} {
		u := linalg.RandomUnitary(d, rng)
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				linalg.Fingerprint(u)
			}
		})
	}
}
