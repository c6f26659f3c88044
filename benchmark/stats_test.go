package main

import (
	"math"
	"testing"
)

func TestQuantileExact(t *testing.T) {
	s := series{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		got, err := s.quantile(tc.q, false)
		if err != nil || math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, %v; want %v", tc.q, got, err, tc.want)
		}
	}
	if s[0] != 5 {
		t.Error("quantile sorted the caller's samples in place")
	}
	if _, err := (series{}).quantile(0.5, false); err == nil {
		t.Error("empty series gave a quantile")
	}
}

func TestQuantileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		need int
	}{{0.5, 1}, {0.9, 100}, {0.99, 1000}, {0.01, 1000}} {
		if got := minSamples(tc.q); got != tc.need {
			t.Errorf("minSamples(%v) = %d, want %d", tc.q, got, tc.need)
		}
		thin := make(series, tc.need-1)
		full := make(series, tc.need)
		if _, err := full.quantile(tc.q, true); err != nil {
			t.Errorf("p%g with %d samples refused: %v", tc.q*100, tc.need, err)
		}
		if tc.need == 1 {
			continue
		}
		if _, err := thin.quantile(tc.q, true); err == nil {
			t.Errorf("p%g with %d samples reported", tc.q*100, len(thin))
		}
		if _, err := thin.quantile(tc.q, false); err != nil {
			t.Errorf("relaxed p%g refused: %v", tc.q*100, err)
		}
	}
}

func TestGeomean(t *testing.T) {
	got, err := geomean([]float64{1, 10, 100})
	if err != nil || math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean = %v, %v; want 10", got, err)
	}
	if _, err := geomean([]float64{1, 0}); err == nil {
		t.Error("geomean accepted zero")
	}
	if _, err := geomean(nil); err == nil {
		t.Error("geomean accepted no values")
	}
}
