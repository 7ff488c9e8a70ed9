package linalg_test

import (
	"fmt"
	"math"
	"math/rand"
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
