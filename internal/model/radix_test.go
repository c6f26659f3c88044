package model

import (
	"testing"

	"mmjoin/internal/params"
	"mmjoin/internal/sim"
)

func radixComponent(p *Prediction) (io sim.Time, present bool) {
	for _, c := range p.Components {
		if c.Name == "radix pass io" {
			return c.T, true
		}
	}
	return 0, false
}

// TestRadixPassTermInertAtSmallK is the conformance guard: with K within
// one pass's reach (2^params.Bits) the predictions carry no radix
// component. Every paper-conformance case runs at K ≤ 256, so Fig 5c
// stays untouched.
func TestRadixPassTermInertAtSmallK(t *testing.T) {
	c := calibForTest(t)
	// The small-K cases run at the conformance panel's scarce memory
	// (nonzero thrash); the larger explicit-K cases use ample frames —
	// the urn DP at K near 256 under tight memory is prohibitively slow,
	// and the radix term must be absent regardless of memory.
	cases := []struct {
		k   int
		mem int64
	}{
		{0, int64(0.03 * 102400 * 128)},
		{1, int64(0.03 * 102400 * 128)},
		{38, int64(0.03 * 102400 * 128)},
		{200, 32 << 20},
		{256, 32 << 20},
	}
	for _, cse := range cases {
		k := cse.k
		in := defaultInputs(cse.mem)
		in.K = k
		base, err := PredictGrace(c, in)
		if err != nil {
			t.Fatal(err)
		}
		if _, present := radixComponent(base); present {
			t.Errorf("K=%d: radix component present in a single-pass plan", k)
		}
	}
}

// TestRadixPassTermAppears: once K exceeds 2^params.Bits the component
// shows up, the prediction stays internally consistent, and a K deep
// enough for a third pass over the same spill costs more.
func TestRadixPassTermAppears(t *testing.T) {
	c := calibForTest(t)
	// Ample frames: the radix-pass term does not depend on memory
	// pressure, and K=600 under scarce memory sends the urn-model DP
	// into a regime that takes minutes.
	in := defaultInputs(32 << 20)
	in.NR, in.NS = 300000, 300000 // 75,000 references a partition: room for K > 256²
	in.K = 600

	two, err := PredictGrace(c, in) // 256 < 600 ≤ 256²: 2 passes
	if err != nil {
		t.Fatal(err)
	}
	if err := two.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	ioTwo, present := radixComponent(two)
	if !present || ioTwo <= 0 {
		t.Fatalf("K=600: radix pass io missing or zero (%v)", ioTwo)
	}

	in.K = 1<<(2*params.Bits) + 1 // 3 passes
	three, err := PredictGrace(c, in)
	if err != nil {
		t.Fatal(err)
	}
	ioThree, present := radixComponent(three)
	if !present || ioThree <= ioTwo {
		t.Errorf("a third pass should cost more pass io: 3-pass %v vs 2-pass %v",
			ioThree, ioTwo)
	}
}

// TestRadixPassTermHybrid: the hybrid prediction charges the same term
// on its overflow portion once the overflow bucket count needs more
// than one pass.
func TestRadixPassTermHybrid(t *testing.T) {
	c := calibForTest(t)
	in := defaultInputs(32 << 20) // ample frames keep the urn DP cheap…
	in.MSproc = 1 << 20           // …while a small Sproc buffer forces f0 < 1
	in.K = 600
	p, err := PredictHybridHash(c, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if io, present := radixComponent(p); !present || io <= 0 {
		t.Fatalf("hybrid K=600: radix pass io missing or zero (%v)", io)
	}
	in.K = 1 << params.Bits
	one, err := PredictHybridHash(c, in)
	if err != nil {
		t.Fatal(err)
	}
	if _, present := radixComponent(one); present {
		t.Error("hybrid K=256: radix component present in a single-pass plan")
	}
}
