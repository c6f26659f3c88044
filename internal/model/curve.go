// Package model implements the paper's validated quantitative analytical
// model: closed-form predictions of total elapsed time per Rproc for the
// parallel pointer-based nested loops (§5.3), sort-merge (§6.3) and Grace
// (§7.3) joins, driven by measured machine functions — the band-dependent
// disk transfer times dttr/dttw of Fig. 1(a), the mapping setup costs of
// Fig. 1(b), and per-operation CPU costs.
//
// Two auxiliary results are implemented in full: the Mackert–Lohman LRU
// page-fault approximation Ylru, and the Johnson–Kotz urn-model estimate
// of pages prematurely replaced by Grace's bucket writes when memory is
// scarce.
package model

import (
	"fmt"
	"sort"
)

// Curve is a measured machine function sampled at increasing x values and
// evaluated by piecewise-linear interpolation (clamped at the ends), the
// way the paper interpolates its measured dtt curves.
type Curve struct {
	xs []float64
	ys []float64
}

// NewCurve builds a curve from (x, y) samples; xs must be strictly
// increasing and non-empty.
func NewCurve(xs, ys []float64) (Curve, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return Curve{}, fmt.Errorf("model: curve needs equal non-empty samples, got %d/%d", len(xs), len(ys))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return Curve{}, fmt.Errorf("model: curve x values not increasing at %d", i)
		}
	}
	return Curve{xs: append([]float64(nil), xs...), ys: append([]float64(nil), ys...)}, nil
}

// MustCurve is NewCurve, panicking on error.
func MustCurve(xs, ys []float64) Curve {
	c, err := NewCurve(xs, ys)
	if err != nil {
		panic(err)
	}
	return c
}

// ConstantCurve returns a curve with the same value everywhere.
func ConstantCurve(y float64) Curve { return Curve{xs: []float64{1}, ys: []float64{y}} }

// Eval interpolates the curve at x.
func (c Curve) Eval(x float64) float64 {
	if len(c.xs) == 0 {
		panic("model: Eval of zero curve")
	}
	if x <= c.xs[0] {
		return c.ys[0]
	}
	n := len(c.xs)
	if x >= c.xs[n-1] {
		return c.ys[n-1]
	}
	i := sort.SearchFloat64s(c.xs, x)
	// c.xs[i-1] < x <= c.xs[i]
	x0, x1 := c.xs[i-1], c.xs[i]
	y0, y1 := c.ys[i-1], c.ys[i]
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}

// Points returns copies of the sample vectors.
func (c Curve) Points() (xs, ys []float64) {
	return append([]float64(nil), c.xs...), append([]float64(nil), c.ys...)
}
