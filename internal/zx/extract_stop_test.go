package zx

import (
	"errors"
	"sort"
	"testing"
)

// fullSimplifyStops pins, per differential-corpus circuit, which of
// ToCircuit's three stops ends the extraction of its FullSimplify
// diagram. Every circuit not listed extracts.
var fullSimplifyStops = map[string]error{
	"decod24": errRecoveryBudget,
	"grover":  errRecoveryBudget,
	"ham7":    errRecoveryBudget,
	"mult":    errRecoveryBudget,
	"qaoa":    errRecoveryBudget,
	"rand20":  errRecoveryBudget,
	"rand39":  errRecoveryBudget,
	"toffoli": errRecoveryBudget,
	"vqe":     errRecoveryBudget,
}

// TestFullSimplifyExtractionStops tells apart the stops behind the
// FullSimplify extractions stage 1 loses, and checks that each still
// reads as ErrNoExtraction.
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
		want := fullSimplifyStops[name]
		if (want == nil) != (err == nil) || want != nil && !errors.Is(err, want) {
			t.Errorf("%s: ToCircuit error %v, pinned %v", name, err, want)
		}
		if err != nil && !errors.Is(err, ErrNoExtraction) {
			t.Errorf("%s: %v does not wrap ErrNoExtraction", name, err)
		}
	}
}
