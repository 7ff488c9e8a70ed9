package optimize_test

import (
	"fmt"
	"testing"

	"epoc/internal/benchcirc"
	"epoc/internal/circuit"
	"epoc/internal/optimize"
	"epoc/internal/zx"
)

// peepholeInputs is the differential population: the 25 named
// circuits, 40 draws of the Fig. 5 random generator and three 48-qubit
// brickwork circuits, each as is and as its Simplify and FullSimplify
// extraction — the inputs the ZX stage hands to Peephole.
func peepholeInputs(t testing.TB) map[string]*circuit.Circuit {
	t.Helper()
	base := map[string]*circuit.Circuit{}
	for _, name := range benchcirc.AllNames() {
		c, err := benchcirc.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		base[name] = c
	}
	for i := 0; i < 40; i++ {
		base[fmt.Sprintf("rand%d", i)] = benchcirc.RandomCircuit(2+i%8, 5+i, int64(i))
	}
	for i := int64(0); i < 3; i++ {
		base[fmt.Sprintf("layered48_%d", i)] = benchcirc.RandomLayered(48, 8, 101000+i)
	}
	out := map[string]*circuit.Circuit{}
	for name, c := range base {
		out[name] = c
		for _, v := range []struct {
			suffix   string
			simplify func(*zx.Graph)
		}{{"simplify", (*zx.Graph).Simplify}, {"full", (*zx.Graph).FullSimplify}} {
			g := zx.FromCircuit(c)
			v.simplify(g)
			if ext, err := g.ToCircuit(); err == nil {
				out[name+"/"+v.suffix] = ext
			}
		}
	}
	return out
}

// TestPeepholeMatchesReference: the incremental rewriter reproduces the
// restart-from-scratch loop op for op.
func TestPeepholeMatchesReference(t *testing.T) {
	for name, c := range peepholeInputs(t) {
		if err := optimize.SameOps(optimize.Peephole(c), optimize.ReferencePeephole(c)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// BenchmarkPeephole times Peephole against the reference loop on the
// Simplify extraction of a 48-qubit, 8-layer brickwork circuit, the
// input that dominates the zx_wide workload.
func BenchmarkPeephole(b *testing.B) {
	g := zx.FromCircuit(benchcirc.RandomLayered(48, 8, 101000))
	g.Simplify()
	c, err := g.ToCircuit()
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		run  func(*circuit.Circuit) *circuit.Circuit
	}{{"incremental", optimize.Peephole}, {"reference", optimize.ReferencePeephole}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v.run(c)
			}
		})
	}
}
