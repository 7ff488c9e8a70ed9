package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// The timings of a run are scaled to a fixed machine speed. A shared
// host's speed drifts by 20% and more over minutes as its neighbours'
// load changes, which is wider than any bound the benchmark may set, and
// it moves the program's time and a fixed reference computation alike.
// So a run also times the reference, in slices spread over the measured
// time, and reports each time t as t · refNominalMS / median(reference).
// On the tuning host (2 vCPUs, quiet) the reference takes refNominalMS,
// so there the reported times are wall times.
const (
	refNominalMS = 14.0
	// refShare is the reference's share of a run's measured time.
	refShare = 0.05
)

// refSink keeps the reference's results live.
var refSink float64

// reference is the fixed computation: the mix of allocation, hashing,
// sorting and small dense complex products the pipeline's layers do.
// It uses no program code, so a change to the program cannot move it.
func reference() time.Duration {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(7))
	m := map[int]float64{}
	xs := make([]float64, 0, 40000)
	for i := 0; i < 40000; i++ {
		v := rng.Float64()
		xs = append(xs, v)
		m[rng.Intn(1<<16)] += v
	}
	sort.Float64s(xs)
	var acc complex128
	for r := 0; r < 3000; r++ {
		a, b, c := make([]complex128, 16), make([]complex128, 16), make([]complex128, 16)
		for i := range a {
			a[i] = complex(xs[(r*16+i)%len(xs)], float64(i))
			b[i] = complex(float64(r), xs[(r+i)%len(xs)])
		}
		for i := 0; i < 4; i++ {
			for k := 0; k < 4; k++ {
				for j := 0; j < 4; j++ {
					c[i*4+j] += a[i*4+k] * b[k*4+j]
				}
			}
		}
		acc += c[5]
	}
	refSink += real(acc) + float64(len(m))
	return time.Since(t0)
}

// speedometer samples the reference as a run goes.
type speedometer struct {
	samples []float64 // ms
	debt    time.Duration
}

// sample times the reference n times, then collects its garbage so the
// measured work that follows does not pay for it.
func (s *speedometer) sample(n int) {
	for i := 0; i < n; i++ {
		s.samples = append(s.samples, float64(reference().Nanoseconds())/1e6)
	}
	runtime.GC()
}

// after is called after d of measured work: it runs the reference until
// it has taken refShare of the measured time so far, so samples spread
// over the run in proportion to time.
func (s *speedometer) after(d time.Duration) {
	s.debt += time.Duration(refShare * float64(d))
	for s.debt > 0 {
		t := reference()
		s.samples = append(s.samples, float64(t.Nanoseconds())/1e6)
		s.debt -= t
	}
}

// scale converts a measured time to one at the nominal speed.
func (s *speedometer) scale() float64 {
	if len(s.samples) == 0 {
		return 1
	}
	return refNominalMS / median(s.samples)
}
