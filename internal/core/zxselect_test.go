package core

import (
	"fmt"
	"math"
	"testing"

	"epoc/internal/benchcirc"
	"epoc/internal/circuit"
	"epoc/internal/gate"
	"epoc/internal/linalg"
	"epoc/internal/obs"
	"epoc/internal/optimize"
)

// crzPair is crz(3);crz(3) on two qubits, and wrongMerge is the single
// crz(6−2π) a merge that assumed a 2π period (not the controlled
// rotation's 4π) would produce: it differs from the pair by Z on the
// control, and scores better than the pair under any score.
func crzPair() (pair, wrongMerge *circuit.Circuit) {
	pair = circuit.New(2)
	pair.Append(gate.New(gate.CRZ, 3), 0, 1)
	pair.Append(gate.New(gate.CRZ, 3), 0, 1)
	wrongMerge = circuit.New(2)
	wrongMerge.Append(gate.New(gate.CRZ, 6-2*math.Pi), 0, 1)
	return pair, wrongMerge
}

func TestZXSelectionRejectsPlantedCandidate(t *testing.T) {
	in, wrong := crzPair()
	rec := obs.New()
	sel := newZXSelection(in, latencyProxy, rec)
	sel.consider(wrong)
	if sel.best != in {
		t.Fatal("a wrong candidate with a better score became the incumbent")
	}
	if got := rec.Snapshot().Counters["zx/verify/rejected"]; got != 1 {
		t.Fatalf("zx/verify/rejected = %d, want 1", got)
	}
	right := circuit.New(2)
	right.Append(gate.New(gate.CRZ, 6), 0, 1)
	sel.consider(right)
	if sel.best != right {
		t.Fatal("the correct merge was not accepted after the rejection")
	}
}

// TestZXSelectGuardsPeepholePath runs zxSelect's candidate stream with
// the Peephole candidates replaced by what a 2π-periodic CRZ merge
// produced: neither may be returned, and the result still implements
// the input.
func TestZXSelectGuardsPeepholePath(t *testing.T) {
	in, wrong := crzPair()
	rec := obs.New()
	sel := newZXSelection(in, latencyProxy, rec)
	i := 0
	zxCandidates(in, func(cand *circuit.Circuit) {
		switch i {
		case 0:
			cand = wrong
		case 1:
			cand = optimize.MergeSingleQubitRuns(wrong)
		}
		i++
		sel.consider(cand)
	})
	if i < 2 {
		t.Fatalf("zxCandidates yielded %d candidates", i)
	}
	if d := linalg.PhaseDistance(in.Unitary(), sel.best.Unitary()); d > equivTol {
		t.Fatalf("selected circuit differs from the input: distance %g", d)
	}
	if rec.Snapshot().Counters["zx/verify/rejected"] == 0 {
		t.Fatal("the planted Peephole candidate was not rejected")
	}
}

// stage1Inputs is the corpus up to the verification width plus
// RandomCircuit draws at three seeds.
func stage1Inputs(t *testing.T) map[string]*circuit.Circuit {
	in := map[string]*circuit.Circuit{}
	for _, name := range benchcirc.AllNames() {
		c, err := benchcirc.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.NumQubits <= maxVerifyQubits {
			in[name] = c
		}
	}
	for _, seed := range []int64{1, 7, 101} {
		for i := 0; i < 6; i++ {
			n, depth := 3+i, 15+5*i
			in[fmt.Sprintf("rand/seed%d/n%d", seed, n)] = benchcirc.RandomCircuit(n, depth, seed*100+int64(i))
		}
	}
	return in
}

// TestZXCandidatesAllEquivalent checks every stage-1 candidate, not
// only those that would win, and fails on any rejection.
func TestZXCandidatesAllEquivalent(t *testing.T) {
	total := 0
	for name, c := range stage1Inputs(t) {
		sel := newZXSelection(c, latencyProxy, nil)
		i := 0
		zxCandidates(c, func(cand *circuit.Circuit) {
			if !sel.equivalent(cand) {
				t.Errorf("%s: candidate %d fails the equivalence check", name, i)
			}
			i++
		})
		total += i
		rec := obs.New()
		zxOptimize(c, rec)
		if got := rec.Snapshot().Counters["zx/verify/rejected"]; got != 0 {
			t.Errorf("%s: zx/verify/rejected = %d", name, got)
		}
	}
	if total == 0 {
		t.Fatal("no candidates checked")
	}
}
