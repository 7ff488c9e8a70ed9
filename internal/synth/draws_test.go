package synth

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"epoc/internal/linalg"
)

// searchDraws exceeds what one search can read: at most MaxNodes (64)
// instantiations of 3 restarts each, over at most 3·(3+2·14) = 93
// parameters for a 3q template at the default MaxCNOTs.
const searchDraws = 64 * 3 * 93 * 5 / 4

// checkDraws reads searchDraws values through a fresh cursor, in
// chunks of uneven sizes, and compares them bitwise with a fresh
// source of the same seed.
func checkDraws(seed int64, chunk int) error {
	ref := rand.New(rand.NewSource(seed))
	d := newRestartDraws(seed)
	buf := make([]float64, 0, 97)
	for read := 0; read < searchDraws; {
		buf = buf[:1+(read/7+chunk)%97]
		d.fill(buf)
		for i, v := range buf {
			if want := ref.Float64(); math.Float64bits(v) != math.Float64bits(want) {
				return fmt.Errorf("seed %d: draw %d is %v, rand.NewSource's %v", seed, read+i, v, want)
			}
		}
		read += len(buf)
	}
	return nil
}

// TestRestartDrawsMatchSource checks that a cursor reads its seed's
// source in order, for the default seed's shared stream and for seeds
// that draw from a stream of their own.
func TestRestartDrawsMatchSource(t *testing.T) {
	for _, seed := range []int64{1, 7, -3} {
		if err := checkDraws(seed, int(seed&7)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestartDrawsConcurrent reads the default seed's shared stream
// from concurrent cursors (run it under -race): however their reads
// interleave, each sees the source in order. Concurrent searches also
// return what a lone search returns.
func TestRestartDrawsConcurrent(t *testing.T) {
	errs := make(chan error, 12)
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- checkDraws(1, 13*w)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	target := linalg.RandomUnitary(8, rand.New(rand.NewSource(5)))
	opts := Options{MaxNodes: 6}
	lone := QSearch(target, opts)
	results := make([]Result, 4)
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w] = QSearch(target, opts)
		}()
	}
	wg.Wait()
	for w, r := range results {
		if r.CNOTs != lone.CNOTs || math.Float64bits(r.Distance) != math.Float64bits(lone.Distance) || fmt.Sprint(r.Circuit.Ops) != fmt.Sprint(lone.Circuit.Ops) {
			t.Fatalf("search %d: %d CNOTs at distance %v, lone search %d at %v", w, r.CNOTs, r.Distance, lone.CNOTs, lone.Distance)
		}
	}
}
