package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail estimate resting on fewer is noise.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantiles cuts xs into groups of equal probability and returns the
// groups-1 cut points, by the same "exclusive" rule as Python's
// statistics.quantiles. It needs at least two samples.
func quantiles(xs []float64, groups int) []float64 {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 || groups < 1 {
		return nil
	}
	m := ld + 1
	out := make([]float64, 0, groups-1)
	for i := 1; i < groups; i++ {
		j := i * m / groups
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*groups)
		out = append(out, (s[j-1]*(float64(groups)-delta)+s[j]*delta)/float64(groups))
	}
	return out
}

// percentile returns the p-th percentile (0 < p < 100) of xs and
// whether it may be reported: at least minBeyond samples must lie
// beyond it. The value interpolates like quantiles with 100 groups.
func percentile(xs []float64, p int) (float64, bool) {
	if p <= 0 || p >= 100 || len(xs) < 2 {
		return 0, false
	}
	beyond := float64(len(xs)) * float64(100-p) / 100
	if beyond < minBeyond {
		return 0, false
	}
	return quantiles(xs, 100)[p-1], true
}

// reportedPercentile is percentile with the value withheld (reported
// as 0) when too few samples lie beyond it.
func reportedPercentile(xs []float64, p int) float64 {
	v, ok := percentile(xs, p)
	if !ok {
		return 0
	}
	return v
}

// geomean is the geometric mean of positive xs, or 0 when any value is
// not positive or there are none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tally counts operations and their failures. A failure is an error, a
// non-200 response, a degraded result or a failed correctness check;
// one operation fails at most once however many checks it misses.
type tally struct {
	attempted, failed int
}

// record counts one operation, failed when any of its checks failed.
func (t *tally) record(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// failedRatio is failed ÷ attempted, 0 when nothing was attempted.
func (t tally) failedRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// okRatio is the share of attempted operations that succeeded: the
// complement of failedRatio, reported as the end-to-end metric because
// a healthy run's failed ratio is 0.
func (t tally) okRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return 1 - t.failedRatio()
}
