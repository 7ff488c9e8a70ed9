package qoc

import (
	"math"
	"math/rand"

	"epoc/internal/faultclock"
	"epoc/internal/linalg"
	"epoc/internal/opt"
	"epoc/internal/trace"
)

// CRABConfig tunes the Chopped Random Basis optimizer (Caneva,
// Calarco et al. 2011), the second QOC algorithm the paper's
// background discusses. Controls are expanded in a small randomized
// Fourier basis and the coefficients are optimized derivative-free,
// which suits experiments where gradients are unavailable.
type CRABConfig struct {
	Harmonics int     // Fourier components per control (default 4)
	MaxIter   int     // Nelder-Mead iteration budget (default 2000)
	Target    float64 // stop once fidelity reaches this (default 0.999)
	Seed      int64   // randomized-frequency seed (default 1)
	Restarts  int     // random restarts (default 2)

	// Gate, when non-nil, is checked once per restart
	// (faultclock.SiteCRABRestart). CRAB's inner Nelder-Mead loop is
	// derivative-free and cheap per step, so restart granularity keeps
	// the check off the hot path; Result.Err classifies early exits
	// the same way GRAPE's does.
	Gate *faultclock.Gate

	// BudgetIters, when > 0 and below MaxIter, caps the Nelder-Mead
	// iterations of every restart; a run that then misses the target
	// returns Result.Err = faultclock.ErrBudget with its best-so-far
	// coefficients.
	BudgetIters int

	// Region is the instrumentation handle of the pulse being
	// optimized (see GRAPEConfig.Region). Its recorder gets per-run
	// convergence metrics under "qoc/crab/*" (runs, restarts used,
	// iteration and final-fidelity distributions, early-stop reason
	// counters).
	Region trace.Region
}

func (c *CRABConfig) defaults() {
	if c.Harmonics == 0 {
		c.Harmonics = 4
	}
	if c.MaxIter == 0 {
		c.MaxIter = 2000
	}
	if c.Target == 0 {
		c.Target = 0.999
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Restarts == 0 {
		c.Restarts = 2
	}
}

// CRAB optimizes the target unitary over the given number of slots
// using the chopped-random-basis ansatz
//
//	u_j(t) = Σ_k [a_{jk}·sin(ω_{jk}·t) + b_{jk}·cos(ω_{jk}·t)]
//
// with randomized frequencies ω around the principal harmonics,
// clipped to the hardware amplitude bounds.
func CRAB(m *Model, target *linalg.Matrix, slots int, cfg CRABConfig) Result {
	cfg.defaults()
	if target.Rows != m.Dim() {
		panic("qoc: target dimension does not match model")
	}
	nc := len(m.Controls)
	T := float64(slots) * m.Dt

	maxIter := cfg.MaxIter
	budgeted := cfg.BudgetIters > 0 && cfg.BudgetIters < maxIter
	if budgeted {
		maxIter = cfg.BudgetIters
	}
	bestRes := Result{Fidelity: -1, Slots: slots, Duration: T}
	restartsUsed := 0
	var stop error
	for restart := 0; restart < cfg.Restarts; restart++ {
		if err := cfg.Gate.Check(faultclock.SiteCRABRestart); err != nil {
			stop = err
			break
		}
		restartsUsed++
		rng := rand.New(rand.NewSource(cfg.Seed + int64(restart)*7919))
		// Randomized frequencies around the principal harmonics.
		freqs := make([][]float64, nc)
		for j := range freqs {
			freqs[j] = make([]float64, cfg.Harmonics)
			for k := range freqs[j] {
				base := 2 * math.Pi * float64(k+1) / T
				freqs[j][k] = base * (1 + 0.4*(rng.Float64()-0.5))
			}
		}

		build := func(coeffs []float64) [][]float64 {
			amps := make([][]float64, slots)
			for s := 0; s < slots; s++ {
				amps[s] = make([]float64, nc)
				t := (float64(s) + 0.5) * m.Dt
				idx := 0
				for j := 0; j < nc; j++ {
					var v float64
					for k := 0; k < cfg.Harmonics; k++ {
						v += coeffs[idx]*math.Sin(freqs[j][k]*t) + coeffs[idx+1]*math.Cos(freqs[j][k]*t)
						idx += 2
					}
					// Clip to the hardware bound.
					if v > m.MaxAmp[j] {
						v = m.MaxAmp[j]
					} else if v < -m.MaxAmp[j] {
						v = -m.MaxAmp[j]
					}
					amps[s][j] = v
				}
			}
			return amps
		}

		objective := func(coeffs []float64) float64 {
			u := m.Propagate(build(coeffs))
			return 1 - Fidelity(u, target)
		}

		np := nc * cfg.Harmonics * 2
		x0 := make([]float64, np)
		idx := 0
		for j := 0; j < nc; j++ {
			for k := 0; k < cfg.Harmonics; k++ {
				x0[idx] = (rng.Float64()*2 - 1) * m.MaxAmp[j] * 0.4
				x0[idx+1] = (rng.Float64()*2 - 1) * m.MaxAmp[j] * 0.4
				idx += 2
			}
		}
		res := opt.NelderMead(objective, x0, opt.NelderMeadConfig{
			MaxIter: maxIter,
			Tol:     1e-12,
			Step:    0.05,
		})
		fid := 1 - res.F
		if fid > bestRes.Fidelity {
			bestRes.Fidelity = fid
			bestRes.Amps = build(res.X)
			bestRes.Iterations = res.Iterations
		}
		if bestRes.Fidelity >= cfg.Target {
			break
		}
	}
	if stop == nil && budgeted && bestRes.Fidelity < cfg.Target {
		stop = faultclock.ErrBudget
	}
	bestRes.Err = stop
	if r := cfg.Region.Recorder(); r != nil {
		reason := "max_iter"
		switch {
		case bestRes.Fidelity >= cfg.Target:
			reason = "target"
		case faultclock.IsBudget(stop):
			reason = "budget"
		case stop != nil:
			reason = "canceled"
		}
		r.Add("qoc/crab/runs", 1)
		r.Add("qoc/crab/stop/"+reason, 1)
		r.Observe("qoc/crab/restarts", float64(restartsUsed))
		r.Observe("qoc/crab/iterations", float64(bestRes.Iterations))
		r.Observe("qoc/crab/final_fidelity", bestRes.Fidelity)
		r.Eventf("qoc/crab", "slots=%d restarts=%d iters=%d fid=%.6f stop=%s",
			slots, restartsUsed, bestRes.Iterations, bestRes.Fidelity, reason)
	}
	return bestRes
}
