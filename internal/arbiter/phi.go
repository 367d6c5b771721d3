package arbiter

import (
	"math"
	"time"
)

// Phi-accrual heartbeat detection (Hayashibara's φ) over log-line
// inter-arrival times, with two deviations that matter in this setting:
//
//   - the interval distribution is modelled as normal for the body but
//     guarded with an exponential tail (scale mean+σ): the pure normal tail
//     collapses to ~0 a few σ out, which would make a 6-minute and a
//     16-minute silence indistinguishable once both are "impossible" —
//     the guard keeps φ growing linearly through deep silences so ranking
//     and thresholds keep discriminating;
//   - cold restarts reset the window (see observeArrival): a rebooted
//     node's cadence is new data, and the crash gap is not a sample.

// ring is a fixed-capacity sliding window of float64 samples. Statistics
// are computed from the stored contents in logical order on demand — never
// maintained incrementally — so restoring the window contents reproduces
// identical floating-point results.
type ring struct {
	buf     []float64
	head, n int // head = next insert slot; when n == len(buf), buf[head] is oldest
}

//aarohi:hotpath
func (r *ring) push(v float64) {
	if len(r.buf) == 0 {
		return
	}
	if r.n < len(r.buf) {
		r.n++
	}
	r.buf[r.head] = v
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
}

func (r *ring) reset() { r.n, r.head = 0, 0 }

// at returns the i-th sample in logical order (0 = oldest).
//
//aarohi:hotpath
func (r *ring) at(i int) float64 {
	j := r.head - r.n + i
	if j < 0 {
		j += len(r.buf)
	}
	return r.buf[j]
}

// meanStd computes the sample mean and (population) standard deviation of
// the window contents in logical order.
//
//aarohi:hotpath
func (r *ring) meanStd() (mean, std float64) {
	if r.n == 0 {
		return 0, 0
	}
	var sum float64
	for i := 0; i < r.n; i++ {
		sum += r.at(i)
	}
	mean = sum / float64(r.n)
	var sq float64
	for i := 0; i < r.n; i++ {
		d := r.at(i) - mean
		sq += d * d
	}
	std = math.Sqrt(sq / float64(r.n))
	return mean, std
}

// tring is a fixed-capacity sliding window of timestamps.
type tring struct {
	buf     []time.Time
	head, n int
}

//aarohi:hotpath
func (r *tring) push(t time.Time) {
	if len(r.buf) == 0 {
		return
	}
	if r.n < len(r.buf) {
		r.n++
	}
	r.buf[r.head] = t
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
}

func (r *tring) at(i int) time.Time {
	j := r.head - r.n + i
	if j < 0 {
		j += len(r.buf)
	}
	return r.buf[j]
}

// anyIn reports whether any retained timestamp lies in (lo, hi].
func (r *tring) anyIn(lo, hi time.Time) bool {
	for i := 0; i < r.n; i++ {
		v := r.at(i)
		if v.After(lo) && !v.After(hi) {
			return true
		}
	}
	return false
}

// pLater is the probability that the next heartbeat arrives later than
// elapsed under the window model: normal body, exponential guard tail.
//
//aarohi:hotpath
func pLater(elapsed, mean, std float64) float64 {
	x := (elapsed - mean) / std
	pn := 0.5 * math.Erfc(x/math.Sqrt2)
	pe := math.Exp(-elapsed / (mean + std))
	if pe > pn {
		return pe
	}
	return pn
}

// phiOf maps a silence to Hayashibara's φ = -log10(pLater), capped.
//
//aarohi:hotpath
func (a *Arbiter) phiOf(elapsed, mean, std float64) float64 {
	return phiValue(elapsed, mean, std, a.cfg.MinSigma.Seconds(), a.cfg.PhiCap)
}

// phiValue is the detector core shared by the arbiter's per-node states and
// the standalone PhiEstimator: σ floored at sigmaFloor, φ capped at phiCap.
//
//aarohi:hotpath
func phiValue(elapsed, mean, std, sigmaFloor, phiCap float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	if std < sigmaFloor {
		std = sigmaFloor
	}
	p := pLater(elapsed, mean, std)
	if p <= 0 {
		return phiCap
	}
	phi := -math.Log10(p)
	if phi < 0 {
		phi = 0
	}
	if phi > phiCap {
		phi = phiCap
	}
	return phi
}

// nodePhi computes the node's current φ against stream time.
//
//aarohi:hotpath
func (a *Arbiter) nodePhi(ns *nodeState) float64 {
	if ns.intervals.n < a.cfg.MinSamples {
		return 0
	}
	mean, std := ns.intervals.meanStd()
	return a.phiOf(a.clock.Sub(ns.lastSeen).Seconds(), mean, std)
}

// flapInstability is the Weibull stability phase: exp(-(uptime/λ)^k),
// 1 right after a restart decaying toward 0 as uptime accrues. The shape k
// comes from the crash history — more flaps flatten the curve (k < 1, long
// distrust tail), per the two-window cold-restart design.
//
//aarohi:hotpath
func (a *Arbiter) flapInstability(ns *nodeState) float64 {
	if ns.flaps == 0 {
		return 0
	}
	if ns.down {
		return 1
	}
	up := a.clock.Sub(ns.upSince).Seconds()
	if up <= 0 {
		return 1
	}
	k := 2 / math.Sqrt(float64(ns.flaps))
	if k < 0.5 {
		k = 0.5
	}
	return math.Exp(-math.Pow(up/a.cfg.StabilityLambda.Seconds(), k))
}

// flapRisk scales instability by how crash-prone the node has proven:
// flaps/(flaps+2), so one crash contributes a third of full flap evidence
// and a serial flapper approaches it.
//
//aarohi:hotpath
func flapRisk(flaps uint64) float64 {
	return float64(flaps) / (float64(flaps) + 2)
}

// FuseNoisyOR combines independent per-source failure probabilities into
// one: P = 1 - ∏(1-p_i). Inputs are clamped to [0,1]; the result is by
// construction in [0,1], monotone non-decreasing in every input, and equals
// the single input when only one source fires (the property tests pin all
// three).
func FuseNoisyOR(ps []float64) float64 {
	q := 1.0
	for _, p := range ps {
		if p < 0 {
			p = 0
		} else if p > 1 {
			p = 1
		}
		q *= 1 - p
	}
	return 1 - q
}
