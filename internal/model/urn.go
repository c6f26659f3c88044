package model

import (
	"math"
	"math/big"
)

// OccupancyDist returns the exact distribution of the number of occupied
// urns after n balls are thrown independently and uniformly into m urns:
// dist[u] = Pr[exactly u urns occupied], computed by the stable dynamic
// programming recurrence
//
//	f(t+1, u) = f(t, u)·u/m + f(t, u−1)·(m−u+1)/m.
func OccupancyDist(n, m int) []float64 {
	if m <= 0 {
		panic("model: OccupancyDist needs m >= 1")
	}
	dist := make([]float64, m+1)
	dist[0] = 1
	upper := 0
	for t := 0; t < n; t++ {
		if upper < m {
			upper++
		}
		for u := upper; u >= 1; u-- {
			dist[u] = dist[u]*float64(u)/float64(m) + dist[u-1]*float64(m-u+1)/float64(m)
		}
		dist[0] = 0
	}
	if n == 0 {
		return dist
	}
	return dist
}

// ProbEmptyAtMost returns Pr[X ≤ z] where X is the number of empty urns
// after n balls into m urns. For small n·m it uses the exact occupancy
// distribution; otherwise a normal approximation with the exact mean and
// variance of X.
func ProbEmptyAtMost(n, m int, z float64) float64 {
	if z < 0 {
		return 0
	}
	if z >= float64(m) {
		return 1
	}
	if n <= 0 {
		// All urns empty.
		if z >= float64(m) {
			return 1
		}
		return 0
	}
	if int64(n)*int64(m) <= 4_000_000 {
		dist := OccupancyDist(n, m)
		p := 0.0
		// X = m − occupied ≤ z  ⇔  occupied ≥ m − z.
		lo := int(math.Ceil(float64(m) - z))
		for u := lo; u <= m; u++ {
			p += dist[u]
		}
		if p > 1 {
			p = 1
		}
		return p
	}
	mean, variance := emptyUrnMoments(n, m)
	if variance <= 0 {
		if z >= mean {
			return 1
		}
		return 0
	}
	// Continuity-corrected normal CDF.
	return 0.5 * (1 + math.Erf((z+0.5-mean)/math.Sqrt(2*variance)))
}

// emptyUrnMoments returns the exact mean and variance of the number of
// empty urns after n balls into m urns.
func emptyUrnMoments(n, m int) (mean, variance float64) {
	fm := float64(m)
	q1 := math.Pow(1-1/fm, float64(n))
	q2 := math.Pow(1-2/fm, float64(n))
	mean = fm * q1
	variance = fm*(fm-1)*q2 + mean - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// EmptyUrnProbExact computes Pr[X = k] for k empty urns after n balls
// into m urns using the Johnson–Kotz inclusion-exclusion closed form
//
//	C(m,k)·(1−k/m)^n · Σ_{j=0}^{m−k−1} C(m−k,j)·(−1)^j·(1 − j/(m−k))^n
//
// evaluated in big-float arithmetic (the alternating sum is numerically
// treacherous in float64). It exists to cross-validate the DP and is
// exercised by tests; predictions use OccupancyDist.
func EmptyUrnProbExact(n, m, k int) float64 {
	if k < 0 || k > m {
		return 0
	}
	const prec = 256
	sum := new(big.Float).SetPrec(prec)
	mk := m - k
	for j := 0; j < mk; j++ {
		term := new(big.Float).SetPrec(prec).SetInt(binomial(mk, j))
		base := new(big.Float).SetPrec(prec).SetFloat64(1 - float64(j)/float64(mk))
		term.Mul(term, bigPow(base, n, prec))
		if j%2 == 1 {
			sum.Sub(sum, term)
		} else {
			sum.Add(sum, term)
		}
	}
	if mk == 0 {
		// All urns empty: probability is 1 iff no balls were thrown.
		if n == 0 {
			return 1
		}
		return 0
	}
	out := new(big.Float).SetPrec(prec).SetInt(binomial(m, k))
	base := new(big.Float).SetPrec(prec).SetFloat64(1 - float64(k)/float64(m))
	out.Mul(out, bigPow(base, n, prec))
	out.Mul(out, sum)
	f, _ := out.Float64()
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return f
}

func binomial(n, k int) *big.Int {
	return new(big.Int).Binomial(int64(n), int64(k))
}

func bigPow(base *big.Float, n int, prec uint) *big.Float {
	out := new(big.Float).SetPrec(prec).SetFloat64(1)
	acc := new(big.Float).SetPrec(prec).Set(base)
	for e := n; e > 0; e >>= 1 {
		if e&1 == 1 {
			out.Mul(out, acc)
		}
		acc.Mul(acc, acc)
	}
	return out
}

// GraceThrash estimates the expected number of RSi bucket pages replaced
// prematurely while nHashed objects are hashed into k buckets (§7.3's urn
// argument). frames is the pager quota MRproc/B; fillPerObject is the
// rate at which companion streams (the RPi,j sub-partitions) fill fresh
// pages per hashed object; current is the number of always-resident
// current pages (the paper assumes the D current pages of Ri and RPi,j
// stay in memory).
//
// Epochs follow the paper's choice: the first epoch spans k objects, the
// rest one object each. A bucket page hit at epoch start is absent at its
// next hit when the distinct pages touched in between — hit buckets plus
// fill events plus current pages — exceed the frame quota:
//
//	p_j = Pr[ empty urns ≤ k + F_j + current − frames ],
//	y_j = (1−1/k)^{H_j} · (1 − (1−1/k)^{α_j}).
//
// The result is Σ_j p_j·y_j · nHashed, each costing one extra write and
// one extra read.
func GraceThrash(nHashed, k, frames, current int, fillPerObject float64) float64 {
	if nHashed <= 0 || k <= 1 || frames <= 0 {
		return 0
	}
	oneMinus := 1 - 1/float64(k)
	total := 0.0
	h := 0.0    // H_e: objects hashed before epoch e starts
	surv := 1.0 // (1−1/k)^{H_e}: no hit during the first H_e objects
	// alpha and step = (1−1/k)^alpha are the epoch's length and its
	// no-hit probability: k objects for the first epoch, one after it.
	alpha, step := float64(k), math.Pow(oneMinus, float64(k))
	for {
		y := surv * (1 - step)
		if y < 1e-12 || h > float64(nHashed) {
			break
		}
		fills := h * fillPerObject
		z := float64(k) + fills + float64(current) - float64(frames)
		// Pr[empty ≤ z] is 1 once z reaches k; most of the ~28·k epochs
		// are past that point and need no call.
		if z >= float64(k) {
			total += y
		} else {
			total += ProbEmptyAtMost(int(h), k, z) * y
		}
		h += alpha
		surv *= step
		alpha, step = 1, oneMinus
	}
	return total * float64(nHashed)
}
