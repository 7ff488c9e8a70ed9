// Pulse library: demonstrates EPOC's lookup-table reuse, including
// global-phase-aware matching — the paper's improvement over
// AccQOC/PAQOC ("similar to having a higher cache hit rate").
//
// Two programs that differ only in gate spelling — s vs rz(π/2), which
// are the same operation up to a global phase e^{iπ/4} — produce block
// unitaries that differ by that phase. Both libraries start empty, so
// the first program misses on every block. A phase-naive library
// (AccQOC/PAQOC behaviour) then re-runs GRAPE for every second-program
// block whose spelling changed its unitary; EPOC's phase-aware keys
// reuse every pulse.
//
// Run with: go run ./examples/pulse_library
package main

import (
	"fmt"
	"log"

	"epoc"
)

// program builds the same entangling circuit, spelling the phase gate
// as "s" or as "rz(pi/2)".
func program(useS bool) *epoc.Circuit {
	c := epoc.NewCircuit(4)
	h, _ := epoc.NewGate("h")
	cx, _ := epoc.NewGate("cx")
	var phaseGate epoc.Gate
	if useS {
		phaseGate, _ = epoc.NewGate("s")
	} else {
		phaseGate, _ = epoc.NewGate("rz", 3.14159265358979/2)
	}
	for q := 0; q < 4; q++ {
		c.Append(h, q)
		c.Append(phaseGate, q)
	}
	for q := 0; q < 3; q++ {
		c.Append(cx, q, q+1)
		c.Append(phaseGate, q+1)
	}
	return c
}

func main() {
	dev := epoc.LinearDevice(4)
	for _, matchPhase := range []bool{false, true} {
		lib := epoc.NewPulseLibrary(matchPhase)
		var hits, lookups int
		fmt.Printf("--- global-phase matching = %v ---\n", matchPhase)
		for _, useS := range []bool{true, false} {
			c := program(useS)
			// PAQOC-style flow: block unitaries reach the library without
			// synthesis normalization, so the phase spelling survives.
			res, err := epoc.Compile(c, epoc.CompileOptions{
				Strategy: epoc.StrategyPAQOC,
				Device:   dev,
				Library:  lib,
			})
			if err != nil {
				log.Fatal(err)
			}
			hits += res.Stats.LibraryHits
			lookups += res.Stats.LibraryHits + res.Stats.LibraryMisses
			spelling := "rz(pi/2)"
			if useS {
				spelling = "s"
			}
			fmt.Printf("program with %-9s latency %7.1f ns, GRAPE runs %2d, hits so far %2d\n",
				spelling, res.Latency, res.Stats.QOCRuns, hits)
		}
		fmt.Printf("library: %d entries, hit rate %d/%d (%.0f%%)\n\n", lib.Len(), hits, lookups, 100*float64(hits)/float64(lookups))
	}
	fmt.Println("The first program fills an empty library, so all its lookups miss.")
	fmt.Println("With phase-aware keys the second program re-uses every pulse;")
	fmt.Println("without them it hits only where both spellings give the same")
	fmt.Println("unitary, and pays GRAPE runs for the rest.")
}
