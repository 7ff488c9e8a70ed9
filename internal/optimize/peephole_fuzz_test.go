package optimize

import (
	"math"
	"math/rand"
	"testing"

	"epoc/internal/circuit"
	"epoc/internal/gate"
)

// streamKinds is the gate set of decoded op streams: every rewrite
// Peephole knows (inverse pairs, S/T fusion, rotation and controlled-
// rotation merges, symmetric two-qubit pairs, H·R·H) and the CX
// commutation rules that bring partners together.
var streamKinds = []gate.Kind{gate.H, gate.X, gate.S, gate.T, gate.RZ, gate.RX, gate.CX, gate.CZ, gate.SWAP, gate.CRZ}

// streamAngles mixes angles that merge to Clifford values or cancel
// with generic ones.
var streamAngles = []float64{math.Pi / 4, -math.Pi / 4, math.Pi / 2, -math.Pi / 2, math.Pi, -math.Pi, 0.3, -0.3, 3, 2*math.Pi - 0.3}

// decodeStream turns a byte string into a circuit: the first byte picks
// 1–4 qubits, then each 3-byte group is one op (kind, first qubit,
// and second qubit or angle). Two-qubit kinds on one qubit are dropped.
func decodeStream(data []byte) *circuit.Circuit {
	if len(data) == 0 {
		return circuit.New(1)
	}
	n := 1 + int(data[0]%4)
	c := circuit.New(n)
	for p := 1; p+2 < len(data); p += 3 {
		kind := streamKinds[int(data[p])%len(streamKinds)]
		a, x := int(data[p+1])%n, int(data[p+2])
		spec := gate.Registry[kind]
		if spec.Qubits == 1 {
			var params []float64
			if spec.Params == 1 {
				params = []float64{streamAngles[x%len(streamAngles)]}
			}
			c.Append(gate.New(kind, params...), a)
			continue
		}
		if n == 1 {
			continue
		}
		b := (a + 1 + x%(n-1)) % n
		var params []float64
		if spec.Params == 1 {
			params = []float64{streamAngles[(x/4)%len(streamAngles)]}
		}
		c.Append(gate.New(kind, params...), a, b)
	}
	return c
}

// TestPeepholeMatchesReferenceStreams runs the fuzz decoder over seeded
// random byte strings: short, rewrite-dense streams on few qubits reach
// the cursor fall-back cases that wide circuits rarely do.
func TestPeepholeMatchesReferenceStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, 1+3*(1+rng.Intn(60)))
		rng.Read(data)
		c := decodeStream(data)
		if err := sameOps(Peephole(c), referencePeephole(c)); err != nil {
			t.Fatalf("stream %x: %v", data, err)
		}
	}
}

// FuzzPeephole checks Peephole against the reference loop, op for op,
// on decoded op streams; inputs past 200 ops are skipped to keep the
// quadratic reference fast.
func FuzzPeephole(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 4, 0, 6, 0, 0, 0})
	f.Add([]byte{2, 6, 0, 0, 4, 0, 0, 6, 0, 0, 4, 0, 0})
	f.Add([]byte{3, 9, 0, 8, 9, 0, 8, 2, 1, 0, 3, 1, 0, 8, 2, 0, 7, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*200 {
			return
		}
		c := decodeStream(data)
		if err := sameOps(Peephole(c), referencePeephole(c)); err != nil {
			t.Fatal(err)
		}
	})
}
