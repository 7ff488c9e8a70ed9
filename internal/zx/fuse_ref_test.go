package zx

import (
	"fmt"
	"math"
	"testing"

	"epoc/internal/benchcirc"
	"epoc/internal/circuit"
)

// referenceFuseAll is the restart-from-scratch spider fusion the
// resuming fuseAll replaced: every fusion re-sorts all vertices and
// neighbour lists to find the next fusable pair. It stays here as the
// differential reference.
func (g *Graph) referenceFuseAll() bool {
	changed := false
	for {
		u, v, found := g.referenceFindFusable()
		if !found {
			return changed
		}
		g.fuse(u, v)
		changed = true
	}
}

func (g *Graph) referenceFindFusable() (int, int, bool) {
	for _, v := range g.Vertices() {
		if g.kind[v] != ZSpider {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if k, _ := g.Edge(v, w); k == Simple && g.kind[w] == ZSpider {
				return v, w, true
			}
		}
	}
	return 0, 0, false
}

// The drivers below are ToGraphLike, Simplify and FullSimplify with
// referenceFuseAll in place of fuseAll; every other rewrite is shared.

func (g *Graph) referenceToGraphLike() {
	g.colorChange()
	for {
		changed := g.referenceFuseAll()
		if g.removeIdentities() {
			changed = true
		}
		if !changed {
			return
		}
	}
}

func (g *Graph) referenceSimplify() {
	g.referenceToGraphLike()
	for {
		changed := false
		if g.lcompAll() {
			changed = true
		}
		if g.pivotAll() {
			changed = true
		}
		if !changed {
			return
		}
		g.referenceToGraphLike()
	}
}

func (g *Graph) referenceFullSimplify() {
	g.referenceSimplify()
	budget := 4*g.NumVertices() + 64
	for rounds := 0; rounds < 100; rounds++ {
		changed := g.pivotGadgetAll()
		if g.fuseGadgets() {
			changed = true
		}
		if !changed || g.NumVertices() > budget {
			return
		}
		g.referenceSimplify()
	}
}

// diffCorpus is the differential test population: the 25 named
// circuits, 40 draws of the Fig. 5 random generator across widths and
// depths, and three 48-qubit brickwork circuits.
func diffCorpus(t testing.TB) map[string]*circuit.Circuit {
	t.Helper()
	out := map[string]*circuit.Circuit{}
	for _, name := range benchcirc.AllNames() {
		c, err := benchcirc.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = c
	}
	for i := 0; i < 40; i++ {
		out[fmt.Sprintf("rand%d", i)] = benchcirc.RandomCircuit(2+i%8, 5+i, int64(i))
	}
	for i := int64(0); i < 3; i++ {
		out[fmt.Sprintf("layered48_%d", i)] = benchcirc.RandomLayered(48, 8, 101000+i)
	}
	return out
}

// sameGraph reports the first difference between two diagrams: vertex
// set, kinds, phases bit for bit, and every edge with its kind.
func sameGraph(a, b *Graph) error {
	av, bv := a.Vertices(), b.Vertices()
	if len(av) != len(bv) {
		return fmt.Errorf("%d vertices, reference %d", len(av), len(bv))
	}
	for i, v := range av {
		if bv[i] != v {
			return fmt.Errorf("vertex %d, reference %d", v, bv[i])
		}
		if a.kind[v] != b.kind[v] || math.Float64bits(a.phase[v]) != math.Float64bits(b.phase[v]) {
			return fmt.Errorf("vertex %d: kind %d phase %v, reference kind %d phase %v",
				v, a.kind[v], a.phase[v], b.kind[v], b.phase[v])
		}
		if a.Degree(v) != b.Degree(v) {
			return fmt.Errorf("vertex %d: degree %d, reference %d", v, a.Degree(v), b.Degree(v))
		}
		for _, w := range a.Neighbors(v) {
			k, _ := a.Edge(v, w)
			if rk, ok := b.Edge(v, w); !ok || rk != k {
				return fmt.Errorf("edge %d-%d differs from the reference", v, w)
			}
		}
	}
	return nil
}

// sameOps reports the first op where two circuits differ: kind, qubits
// and every parameter bit for bit.
func sameOps(got, want *circuit.Circuit) error {
	if got.NumQubits != want.NumQubits || len(got.Ops) != len(want.Ops) {
		return fmt.Errorf("%d qubits %d ops, reference %d qubits %d ops",
			got.NumQubits, len(got.Ops), want.NumQubits, len(want.Ops))
	}
	for i, op := range got.Ops {
		ref := want.Ops[i]
		same := op.G.Kind == ref.G.Kind && len(op.Qubits) == len(ref.Qubits) && len(op.G.Params) == len(ref.G.Params)
		for k := 0; same && k < len(op.Qubits); k++ {
			same = op.Qubits[k] == ref.Qubits[k]
		}
		for k := 0; same && k < len(op.G.Params); k++ {
			same = math.Float64bits(op.G.Params[k]) == math.Float64bits(ref.G.Params[k])
		}
		if !same {
			return fmt.Errorf("op %d: %v, reference %v", i, op, ref)
		}
	}
	return nil
}

// TestFuseAllMatchesReference: ToGraphLike, Simplify and FullSimplify
// with the resuming fuseAll leave exactly the diagram the reference
// loop leaves, and extract to the same circuit op for op.
func TestFuseAllMatchesReference(t *testing.T) {
	type driver struct {
		name     string
		got, ref func(*Graph)
	}
	drivers := []driver{
		{"graphlike", (*Graph).ToGraphLike, (*Graph).referenceToGraphLike},
		{"simplify", (*Graph).Simplify, (*Graph).referenceSimplify},
		{"full", (*Graph).FullSimplify, (*Graph).referenceFullSimplify},
	}
	for name, c := range diffCorpus(t) {
		for _, d := range drivers {
			got, ref := FromCircuit(c), FromCircuit(c)
			d.got(got)
			d.ref(ref)
			if err := sameGraph(got, ref); err != nil {
				t.Fatalf("%s/%s: %v", name, d.name, err)
			}
			gotC, gotErr := got.ToCircuit()
			refC, refErr := ref.ToCircuit()
			if (gotErr == nil) != (refErr == nil) {
				t.Fatalf("%s/%s: extraction error %v, reference %v", name, d.name, gotErr, refErr)
			}
			if gotErr != nil {
				continue
			}
			if err := sameOps(gotC, refC); err != nil {
				t.Fatalf("%s/%s: extraction %v", name, d.name, err)
			}
		}
	}
}

// BenchmarkSimplify times Simplify with the resuming fuseAll against
// the reference loop on a 48-qubit, 8-layer brickwork circuit.
func BenchmarkSimplify(b *testing.B) {
	g0 := FromCircuit(benchcirc.RandomLayered(48, 8, 101000))
	for _, v := range []struct {
		name string
		run  func(*Graph)
	}{{"incremental", (*Graph).Simplify}, {"reference", (*Graph).referenceSimplify}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := g0.clone()
				b.StartTimer()
				v.run(g)
			}
		})
	}
}

// BenchmarkExtract times ToCircuit on two diagrams: the simplified
// 48-qubit, 8-layer brickwork circuit of BenchmarkSimplify, which
// extracts, and mult's FullSimplify diagram, on which stall recovery
// stops making progress and the extraction gives up.
func BenchmarkExtract(b *testing.B) {
	mult, err := benchcirc.Get("mult")
	if err != nil {
		b.Fatal(err)
	}
	wide := FromCircuit(benchcirc.RandomLayered(48, 8, 101000))
	wide.Simplify()
	failing := FromCircuit(mult)
	failing.FullSimplify()
	for _, v := range []struct {
		name  string
		g     *Graph
		fails bool
	}{{"layered48", wide, false}, {"mult_full", failing, true}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := v.g.ToCircuit(); (err != nil) != v.fails {
					b.Fatalf("ToCircuit error %v", err)
				}
			}
		})
	}
}
