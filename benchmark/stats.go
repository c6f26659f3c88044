package main

import (
	"fmt"
	"math"
	"sort"
)

// series is a set of raw samples. Every statistic the benchmark prints
// is computed from the samples themselves — no bucketed histogram sits
// between a measurement and its percentile.
type series []float64

// tailSamples is how many samples must lie beyond a tail percentile
// before it is reported.
const tailSamples = 10

// minSamples is the smallest sample count that supports the q-quantile:
// at least tailSamples samples beyond a tail percentile (1,000 for a
// p99, 100 for a p90). The median is a location, not a tail; one sample
// supports it, and its count is printed beside it so a thin one shows.
func minSamples(q float64) int {
	far := math.Min(q, 1-q)
	if q == 0.5 || far <= 0 {
		return 1
	}
	return int(math.Ceil(tailSamples/far - 1e-9))
}

// quantile returns the exact q-quantile of the samples (linear
// interpolation between the two nearest order statistics). With strict
// set it refuses a percentile the sample count does not support, so a
// run fails loudly rather than reporting a thinner tail.
func (s series) quantile(q float64, strict bool) (float64, error) {
	if len(s) == 0 {
		return 0, fmt.Errorf("no samples")
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("quantile %v outside [0,1]", q)
	}
	if need := minSamples(q); strict && len(s) < need {
		return 0, fmt.Errorf("p%g needs %d samples (%d beyond it), have %d", q*100, need, tailSamples, len(s))
	}
	sorted := append(series(nil), s...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo]), nil
}

// geomean is the geometric mean of positive values.
func geomean(vs []float64) (float64, error) {
	if len(vs) == 0 {
		return 0, fmt.Errorf("no values")
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0, fmt.Errorf("geomean of non-positive value %v", v)
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs))), nil
}
