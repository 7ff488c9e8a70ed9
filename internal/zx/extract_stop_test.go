package zx

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"epoc/internal/benchcirc"
)

// fullSimplifyStops pins, per differential-corpus circuit, how many
// stall recoveries the extraction of its FullSimplify diagram makes
// before ToCircuit gives up on the progress rule. Every circuit not
// listed extracts.
var fullSimplifyStops = map[string]int{
	"decod24": 11,
	"grover":  24,
	"ham7":    9,
	"mult":    10,
	"qaoa":    11,
	"rand20":  9,
	"rand39":  15,
	"toffoli": 18,
	"vqe":     13,
}

// TestFullSimplifyExtractionStops pins the FullSimplify extractions
// stage 1 loses: each stops on the progress rule after its pinned
// number of recoveries, and reads as ErrNoExtraction.
func TestFullSimplifyExtractionStops(t *testing.T) {
	corpus := diffCorpus(t)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := FromCircuit(corpus[name])
		g.FullSimplify()
		_, err := g.ToCircuit()
		n, fails := fullSimplifyStops[name]
		if !fails {
			if err != nil {
				t.Errorf("%s: ToCircuit error %v, pinned to extract", name, err)
			}
			continue
		}
		want := fmt.Sprintf("%v: stall recovery stopped shrinking the diagram after %d recoveries", ErrNoExtraction, n)
		if err == nil || err.Error() != want || !errors.Is(err, ErrNoExtraction) {
			t.Errorf("%s: ToCircuit error %v, pinned %q", name, err, want)
		}
	}
}

// TestExtractionStallMargin checks the margin under ToCircuit's limit
// of 8: no extraction that succeeds goes 6 or more recoveries in a row
// without progress, so each one still succeeds when extract gives up
// at the 6th. The population is the differential corpus and synth_cold's ten
// random draws at seeds 101 and 7 (perfbench's synthColdItems), each
// through Simplify and through FullSimplify.
func TestExtractionStallMargin(t *testing.T) {
	const limit = 6
	corpus := diffCorpus(t)
	for _, seed := range []int64{101, 7} {
		for i := 0; i < 10; i++ {
			n, depth := 4+i%6, 20+5*i
			corpus[fmt.Sprintf("synth_cold%d/rand%d", seed, i)] = benchcirc.RandomCircuit(n, depth, seed*1000+int64(i))
		}
	}
	succeeded := 0
	for name, c := range corpus {
		for _, s := range []struct {
			name     string
			simplify func(*Graph)
		}{{"Simplify", (*Graph).Simplify}, {"FullSimplify", (*Graph).FullSimplify}} {
			g := FromCircuit(c)
			s.simplify(g)
			if _, err := g.ToCircuit(); err != nil {
				continue
			}
			succeeded++
			if _, err := g.extract(limit); err != nil {
				t.Errorf("%s/%s: extracts, but goes %d recoveries without progress: %v", name, s.name, limit, err)
			}
		}
	}
	if succeeded == 0 {
		t.Fatal("no extraction succeeded")
	}
}

// FuzzExtract runs random circuits of 2–5 qubits through Simplify,
// ReduceGadgets and ToCircuit, as stage 1 does. The extractor may give
// up, but only with ErrNoExtraction, and any circuit it returns must
// match the input on product states.
func FuzzExtract(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 20, 39, 101} {
		f.Add(uint8(3), uint8(20), seed)
	}
	f.Fuzz(func(t *testing.T, width, depth uint8, seed int64) {
		n, d := 2+int(width)%4, 1+int(depth)%60
		c := benchcirc.RandomCircuit(n, d, seed)
		g := FromCircuit(c)
		g.Simplify()
		g.ReduceGadgets()
		context := fmt.Sprintf("n=%d depth=%d seed=%d", n, d, seed)
		out, err := g.ToCircuit()
		if err != nil {
			if !errors.Is(err, ErrNoExtraction) {
				t.Fatalf("%s: %v", context, err)
			}
			return
		}
		simEquivalent(t, c, out, context)
	})
}
