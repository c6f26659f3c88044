package model

import (
	"math"
	"testing"
	"testing/quick"

	"mmjoin/internal/machine"
	"mmjoin/internal/sim"
)

func TestCurveInterpolation(t *testing.T) {
	c := MustCurve([]float64{1, 3, 5}, []float64{10, 30, 40})
	cases := []struct{ x, want float64 }{
		{0, 10}, {1, 10}, {2, 20}, {3, 30}, {4, 35}, {5, 40}, {100, 40},
	}
	for _, cse := range cases {
		if got := c.Eval(cse.x); math.Abs(got-cse.want) > 1e-9 {
			t.Errorf("Eval(%g) = %g, want %g", cse.x, got, cse.want)
		}
	}
}

func TestCurveErrors(t *testing.T) {
	if _, err := NewCurve(nil, nil); err == nil {
		t.Error("empty curve accepted")
	}
	if _, err := NewCurve([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := NewCurve([]float64{2, 1}, []float64{1, 2}); err == nil {
		t.Error("non-increasing xs accepted")
	}
	if got := ConstantCurve(7).Eval(123); got != 7 {
		t.Errorf("ConstantCurve = %g", got)
	}
}

func TestCurvePointsCopy(t *testing.T) {
	c := MustCurve([]float64{1, 2}, []float64{3, 4})
	xs, _ := c.Points()
	xs[0] = 99
	if c.Eval(1) != 3 {
		t.Error("Points leaked internal storage")
	}
}

func TestYlruBasicProperties(t *testing.T) {
	// More lookups ⇒ more faults; bigger buffer ⇒ fewer faults; faults
	// never exceed x (one per lookup here: one tuple per key) and grow
	// monotonically toward t as x grows with a tiny buffer.
	n, tp, i := 10000.0, 800.0, 10000.0
	if a, b := Ylru(n, tp, i, 100, 100), Ylru(n, tp, i, 100, 1000); a >= b {
		t.Errorf("Ylru not increasing in x: %g vs %g", a, b)
	}
	if a, b := Ylru(n, tp, i, 50, 5000), Ylru(n, tp, i, 700, 5000); a <= b {
		t.Errorf("Ylru not decreasing in buffer: %g vs %g", a, b)
	}
	if f := Ylru(n, tp, i, 800, 20000); f > tp+1e-6 {
		// With the buffer as large as the relation, faults are bounded
		// by the page count.
		t.Errorf("Ylru = %g exceeds page count %g with full buffer", f, tp)
	}
	if Ylru(n, tp, i, 100, 0) != 0 {
		t.Error("zero lookups should fault nothing")
	}
}

func TestYlruColdVsWarm(t *testing.T) {
	// With b >= t every page faults at most once: x → ∞ gives ~t faults.
	f := Ylru(10000, 800, 10000, 800, 1e9)
	if math.Abs(f-800) > 1 {
		t.Errorf("saturating faults = %g, want ~800", f)
	}
	// With one frame, nearly every lookup faults.
	f1 := Ylru(10000, 800, 10000, 1, 10000)
	if f1 < 9000 {
		t.Errorf("one-frame faults = %g, want ~10000", f1)
	}
}

func TestOccupancyDistBasics(t *testing.T) {
	// n=0: all empty.
	d := OccupancyDist(0, 5)
	if d[0] != 1 {
		t.Errorf("dist(0 balls) = %v", d)
	}
	// n=1: exactly one occupied.
	d = OccupancyDist(1, 5)
	if math.Abs(d[1]-1) > 1e-12 {
		t.Errorf("dist(1 ball) = %v", d)
	}
	// Distribution sums to 1.
	d = OccupancyDist(40, 7)
	sum := 0.0
	for _, p := range d {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("distribution sums to %g", sum)
	}
}

func TestOccupancyMatchesJohnsonKotzClosedForm(t *testing.T) {
	for _, cse := range []struct{ n, m int }{{5, 3}, {10, 10}, {25, 8}, {60, 12}} {
		dist := OccupancyDist(cse.n, cse.m)
		for k := 0; k <= cse.m; k++ {
			// k empty urns ⇔ m−k occupied.
			dp := dist[cse.m-k]
			cf := EmptyUrnProbExact(cse.n, cse.m, k)
			if math.Abs(dp-cf) > 1e-9 {
				t.Errorf("n=%d m=%d k=%d: DP %g vs closed form %g", cse.n, cse.m, k, dp, cf)
			}
		}
	}
}

func TestProbEmptyAtMostEdges(t *testing.T) {
	if got := ProbEmptyAtMost(10, 5, -1); got != 0 {
		t.Errorf("negative z: %g", got)
	}
	if got := ProbEmptyAtMost(10, 5, 5); got != 1 {
		t.Errorf("z = m: %g", got)
	}
	if got := ProbEmptyAtMost(0, 5, 4); got != 0 {
		t.Errorf("no balls, z < m: %g", got)
	}
}

func TestProbEmptyNormalApproxAgreesWithDP(t *testing.T) {
	// Force both paths on a case solvable by both.
	n, m := 3000, 50
	mean, _ := emptyUrnMoments(n, m)
	z := mean + 1
	exact := ProbEmptyAtMost(n, m, z)
	// Normal path via big inputs uses the same moments; compare on this
	// moderate case directly against the moment-based approximation.
	approx := 0.5 * (1 + math.Erf((z+0.5-mean)/math.Sqrt(2*varianceOf(n, m))))
	if math.Abs(exact-approx) > 0.1 {
		t.Errorf("DP %g vs normal %g differ by more than 0.1", exact, approx)
	}
}

func varianceOf(n, m int) float64 {
	_, v := emptyUrnMoments(n, m)
	if v <= 0 {
		return 1e-12
	}
	return v
}

func TestGraceThrashBehaviour(t *testing.T) {
	// Ample memory ⇒ no premature replacement.
	if got := GraceThrash(10000, 20, 1000, 4, 0.1); got != 0 {
		t.Errorf("thrash with ample memory = %g, want 0", got)
	}
	// Tiny memory ⇒ a substantial fraction of hashed objects thrash.
	got := GraceThrash(10000, 64, 16, 4, 0.1)
	if got <= 0 {
		t.Error("no thrash with frames << K")
	}
	// Monotone: fewer frames can't reduce thrash.
	lo := GraceThrash(10000, 64, 80, 4, 0.1)
	hi := GraceThrash(10000, 64, 30, 4, 0.1)
	if hi < lo {
		t.Errorf("thrash not monotone in memory pressure: %g vs %g", lo, hi)
	}
	// Degenerate inputs.
	if GraceThrash(0, 64, 16, 4, 0.1) != 0 || GraceThrash(100, 1, 16, 4, 0.1) != 0 {
		t.Error("degenerate inputs should give zero")
	}
}

// graceThrashByTheBook is §7.3's sum as first written: every epoch raises
// (1−1/k) to the epoch's length with math.Pow and asks ProbEmptyAtMost,
// whatever z is. GraceThrash skips both where the answer is known (the
// power is 1 after the first epoch; the probability is 1 once z ≥ k), and
// a planner's Choice may not move by one bit for it.
func graceThrashByTheBook(nHashed, k, frames, current int, fillPerObject float64) float64 {
	if nHashed <= 0 || k <= 1 || frames <= 0 {
		return 0
	}
	oneMinus := 1 - 1/float64(k)
	total, h, surv := 0.0, 0.0, 1.0
	for e := 0; ; e++ {
		alpha := 1.0
		if e == 0 {
			alpha = float64(k)
		}
		y := surv * (1 - math.Pow(oneMinus, alpha))
		if y < 1e-12 || h > float64(nHashed) {
			break
		}
		z := float64(k) + h*fillPerObject + float64(current) - float64(frames)
		total += ProbEmptyAtMost(int(h), k, z) * y
		h += alpha
		surv *= math.Pow(oneMinus, alpha)
	}
	return total * float64(nHashed)
}

func TestGraceThrashBitIdenticalToTheBook(t *testing.T) {
	check := func(n, k, frames, current int, fill float64) {
		t.Helper()
		got, want := GraceThrash(n, k, frames, current, fill), graceThrashByTheBook(n, k, frames, current, fill)
		if got != want {
			t.Errorf("GraceThrash(%d, %d, %d, %d, %g) = %v, by the book %v", n, k, frames, current, fill, got, want)
		}
	}
	// Small urns, so the book's occupancy DP per epoch stays cheap where
	// z < k holds for every epoch (fill 0, frames above current).
	for _, n := range []int{1, 50, 600} {
		for _, k := range []int{2, 3, 20} {
			for _, frames := range []int{1, 4, 16, 80} {
				for _, current := range []int{1, 4, 6} {
					for _, fill := range []float64{0, 1.0 / 32, 0.1} {
						check(n, k, frames, current, fill)
					}
				}
			}
		}
	}
	// The benchmark's shapes: a 16 KiB grant (4 frames) at one pass's
	// fan-out, where z ≥ k from the first epoch, and the mixed case above.
	check(40000, 256, 4, 4, 3.0/32)
	check(30000, 256, 4, 1, 1.0/32)
	check(10000, 64, 16, 4, 0.1)
	check(50000, 8, 256, 4, 3.0/32)
}

func calibForTest(t *testing.T) Calibration {
	t.Helper()
	cfg := machine.DefaultConfig()
	return Calibrate(cfg, 800, 1)
}

func defaultInputs(mem int64) Inputs {
	return Inputs{
		NR: 102400, NS: 102400, R: 128, S: 128, Ptr: 8,
		D: 4, Skew: 1, MRproc: mem,
	}
}

func TestCalibrateShape(t *testing.T) {
	c := calibForTest(t)
	if c.DTTR.Eval(1) >= c.DTTR.Eval(12800) {
		t.Error("dttr not increasing")
	}
	if c.DTTW.Eval(12800) >= c.DTTR.Eval(12800) {
		t.Error("dttw should be below dttr at large bands")
	}
	if c.NewMap.Eval(12800) <= c.OpenMap.Eval(12800) {
		t.Error("newMap should exceed openMap")
	}
	if c.B != 4096 || c.HP != 8 {
		t.Errorf("constants: B=%d HP=%d", c.B, c.HP)
	}
}

func TestPredictionsPositiveAndOrdered(t *testing.T) {
	c := calibForTest(t)
	mem := int64(0.03 * 102400 * 128)
	nl, err := PredictNestedLoops(c, defaultInputs(mem))
	if err != nil {
		t.Fatal(err)
	}
	sm, err := PredictSortMerge(c, defaultInputs(mem))
	if err != nil {
		t.Fatal(err)
	}
	gr, err := PredictGrace(c, defaultInputs(mem))
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]*Prediction{"nl": nl, "sm": sm, "grace": gr} {
		if p.Total <= 0 {
			t.Errorf("%s total %v", name, p.Total)
		}
		var sum sim.Time
		for _, comp := range p.Components {
			if comp.T < 0 {
				t.Errorf("%s component %s negative", name, comp.Name)
			}
			sum += comp.T
		}
		if sum != p.Total {
			t.Errorf("%s components sum %v != total %v", name, sum, p.Total)
		}
	}
	// The paper's Fig 5 ordering at scarce memory: grace < sort-merge <
	// nested loops.
	if !(gr.Total < sm.Total && sm.Total < nl.Total) {
		t.Errorf("ordering violated: grace %v, sm %v, nl %v", gr.Total, sm.Total, nl.Total)
	}
}

func TestPredictNestedLoopsMemorySensitivity(t *testing.T) {
	c := calibForTest(t)
	total := int64(102400 * 128)
	lo, _ := PredictNestedLoops(c, defaultInputs(total/10))
	hi, _ := PredictNestedLoops(c, defaultInputs(7*total/10))
	if lo.Total <= hi.Total {
		t.Errorf("NL model not memory sensitive: %v vs %v", lo.Total, hi.Total)
	}
}

func TestPredictSortMergeDiscontinuity(t *testing.T) {
	// NPass must step down as memory grows, producing the Fig 5b
	// discontinuities.
	c := calibForTest(t)
	total := float64(102400 * 128)
	prev := 0
	drops := 0
	for f := 0.005; f <= 0.05; f += 0.0025 {
		pr, err := PredictSortMerge(c, defaultInputs(int64(f*total)))
		if err != nil {
			t.Fatal(err)
		}
		if prev != 0 && pr.NPass > prev {
			t.Errorf("NPass increased with memory at f=%.4f", f)
		}
		if prev != 0 && pr.NPass < prev {
			drops++
		}
		prev = pr.NPass
	}
	if drops == 0 {
		t.Error("no merge-pass discontinuity across the Fig 5b range")
	}
}

func TestPredictGraceThrashKnee(t *testing.T) {
	// The Grace prediction should rise sharply at very low memory.
	c := calibForTest(t)
	total := float64(102400 * 128)
	low, _ := PredictGrace(c, defaultInputs(int64(0.005*total)))
	mid, _ := PredictGrace(c, defaultInputs(int64(0.05*total)))
	if float64(low.Total) < 1.2*float64(mid.Total) {
		t.Errorf("no thrash knee: low %v vs mid %v", low.Total, mid.Total)
	}
}

func TestPredictErrors(t *testing.T) {
	c := calibForTest(t)
	bad := defaultInputs(100) // below a page
	if _, err := PredictNestedLoops(c, bad); err == nil {
		t.Error("sub-page memory accepted")
	}
	worse := defaultInputs(1 << 20)
	worse.D = 0
	if _, err := PredictSortMerge(c, worse); err == nil {
		t.Error("D=0 accepted")
	}
}

// Property: Ylru is bounded by both t and x and is non-negative for any
// sane parameters.
func TestQuickYlruBounds(t *testing.T) {
	f := func(rawN, rawT, rawB, rawX uint16) bool {
		n := float64(rawN%5000) + 1
		tp := float64(rawT%1000) + 1
		i := n
		b := float64(rawB%1000) + 1
		x := float64(rawX % 10000)
		y := Ylru(n, tp, i, b, x)
		return y >= 0 && y <= tp+x+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: occupancy DP is a probability distribution whose mean matches
// the closed-form expected occupancy m(1-(1-1/m)^n).
func TestQuickOccupancyMean(t *testing.T) {
	f := func(rawN, rawM uint8) bool {
		n := int(rawN)%120 + 1
		m := int(rawM)%20 + 1
		dist := OccupancyDist(n, m)
		sum, mean := 0.0, 0.0
		for u, p := range dist {
			if p < -1e-12 {
				return false
			}
			sum += p
			mean += float64(u) * p
		}
		want := float64(m) * (1 - math.Pow(1-1/float64(m), float64(n)))
		return math.Abs(sum-1) < 1e-9 && math.Abs(mean-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPredictHybridHashShapes(t *testing.T) {
	c := calibForTest(t)
	total := float64(102400 * 128)
	// Ample memory: no overflow buckets, cheaper than Grace.
	rich, err := PredictHybridHash(c, defaultInputs(int64(0.5*total)))
	if err != nil {
		t.Fatal(err)
	}
	if rich.K != 0 {
		t.Errorf("K = %d with ample memory", rich.K)
	}
	grRich, _ := PredictGrace(c, defaultInputs(int64(0.5*total)))
	if rich.Total >= grRich.Total {
		t.Errorf("hybrid (%v) should undercut grace (%v) with ample memory", rich.Total, grRich.Total)
	}
	// Scarce memory: converges to Grace.
	poor, err := PredictHybridHash(c, defaultInputs(int64(0.01*total)))
	if err != nil {
		t.Fatal(err)
	}
	grPoor, _ := PredictGrace(c, defaultInputs(int64(0.01*total)))
	ratio := float64(poor.Total) / float64(grPoor.Total)
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("hybrid/grace prediction ratio %.2f at scarce memory", ratio)
	}
	// Components must sum to the total.
	var sum sim.Time
	for _, comp := range rich.Components {
		sum += comp.T
	}
	if sum != rich.Total {
		t.Error("hybrid components do not sum to total")
	}
}

func TestPredictTraditionalAlwaysAboveGrace(t *testing.T) {
	c := calibForTest(t)
	total := float64(102400 * 128)
	for _, f := range []float64{0.01, 0.05, 0.2, 0.5} {
		tr, err := PredictTraditionalGrace(c, defaultInputs(int64(f*total)))
		if err != nil {
			t.Fatal(err)
		}
		gr, err := PredictGrace(c, defaultInputs(int64(f*total)))
		if err != nil {
			t.Fatal(err)
		}
		if tr.Total <= gr.Total {
			t.Errorf("f=%.2f: traditional prediction (%v) not above pointer-based (%v)",
				f, tr.Total, gr.Total)
		}
	}
	bad := defaultInputs(100)
	if _, err := PredictTraditionalGrace(c, bad); err == nil {
		t.Error("sub-page memory accepted")
	}
	if _, err := PredictHybridHash(c, bad); err == nil {
		t.Error("sub-page memory accepted")
	}
}

// Property: curve evaluation is bounded by the sample extremes and
// monotone for monotone samples.
func TestQuickCurveBounded(t *testing.T) {
	f := func(raw []uint16, probe uint16) bool {
		if len(raw) < 1 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		ys := make([]float64, 0, len(raw))
		for i, r := range raw {
			if i >= 12 {
				break
			}
			xs = append(xs, float64(i*10+1))
			ys = append(ys, float64(r))
		}
		c := MustCurve(xs, ys)
		got := c.Eval(float64(probe % 200))
		lo, hi := ys[0], ys[0]
		for _, y := range ys {
			if y < lo {
				lo = y
			}
			if y > hi {
				hi = y
			}
		}
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
