package params

import (
	"math"
	"testing"
)

func TestBuckets(t *testing.T) {
	cases := []struct {
		name       string
		k          int
		f0, refs   float64
		bytes, mem int64
		want       int
	}{
		// 1.2·1000·32/4096 = 9.375.
		{"derived, rounded up", 0, 0, 1000, 32, 4096, 10},
		{"ample grant floors at one bucket", 0, 0, 1000, 32, 1 << 30, 1},
		{"no references, one bucket", 0, 0, 0, 32, 4096, 1},
		{"unbounded grant, one bucket", 0, 0, 1000, 32, 0, 1},
		{"explicit k honoured", 3, 0, 1000, 32, 4096, 3},
		{"explicit k honoured past the rule", 500, 0, 1000, 32, 1 << 30, 500},
		{"negative k derives", -1, 0, 1000, 32, 4096, 10},
		// Half resident: 1.2·0.5·1000·32/4096 = 4.6875.
		{"hybrid overflow shrinks K", 0, 0.5, 1000, 32, 4096, 5},
		{"hybrid explicit k", 7, 0.5, 1000, 32, 4096, 7},
		{"everything resident: K = 0", 0, 1, 1000, 32, 4096, 0},
		{"everything resident beats an explicit k", 7, 1, 1000, 32, 4096, 0},
	}
	for _, c := range cases {
		if got := Buckets(c.k, c.f0, c.refs, c.bytes, c.mem); got != c.want {
			t.Errorf("%s: Buckets(%d, %g, %g, %d, %d) = %d, want %d",
				c.name, c.k, c.f0, c.refs, c.bytes, c.mem, got, c.want)
		}
	}
}

func TestCap(t *testing.T) {
	cases := []struct {
		k    int
		refs float64
		want int
	}{
		{10, 1000, 10},
		{2000, 1000, 1000},
		{2000, 999.9, 999}, // a fractional estimate caps at its floor
		{5, 0.5, 1},        // fewer references than one: one bucket
		{5, 0, 1},
		{0, 1000, 0}, // hybrid hash with everything resident
	}
	for _, c := range cases {
		if got := Cap(c.k, c.refs); got != c.want {
			t.Errorf("Cap(%d, %g) = %d, want %d", c.k, c.refs, got, c.want)
		}
	}
}

func TestResident(t *testing.T) {
	cases := []struct {
		name      string
		mem       int64
		objs      float64
		size      int64
		want      float64
		tolerance float64
	}{
		{"0.8 of the grant over the partition", 8000, 1000, 32, 0.2, 1e-15},
		{"exactly fits at 1/0.8 of the partition", 40000, 1000, 32, 1, 0},
		{"clamped to 1", 1 << 30, 1000, 32, 1, 0},
		{"no grant is unbounded: everything resident", 0, 1000, 32, 1, 0},
		{"negative grant is unbounded: everything resident", -5, 1000, 32, 1, 0},
		{"empty partition fits", 4096, 0, 32, 1, 0},
	}
	for _, c := range cases {
		got := Resident(c.mem, c.objs, c.size)
		if math.Abs(got-c.want) > c.tolerance || got < 0 || got > 1 {
			t.Errorf("%s: Resident(%d, %g, %d) = %g, want %g", c.name, c.mem, c.objs, c.size, got, c.want)
		}
	}
	// At f0 = 1 the bucket rule has nothing left to bucket.
	if k := Buckets(0, Resident(40000, 1000, 32), 1000, 32, 40000); k != 0 {
		t.Errorf("a fully resident partition derives K = %d, want 0", k)
	}
	// No grant is unbounded to both rules: hybrid hash buckets nothing.
	if k := Buckets(0, Resident(0, 1000, 32), 1000, 32, 0); k != 0 {
		t.Errorf("an unbounded grant derives hybrid K = %d, want 0", k)
	}
}

func TestTableSize(t *testing.T) {
	cases := []struct {
		refs float64
		k    int
		want int
	}{
		{0, 1, 16},
		{1000, 0, 16}, // no buckets: the floor
		{64, 1, 16},   // a quarter is 16 already
		{68, 1, 32},   // 17 > 16: next power of two
		{128, 1, 32},
		{129, 1, 32}, // 129/4 = 32 in integers
		{4096, 4, 256},
		{1 << 20, 1, 1 << 18},
	}
	for _, c := range cases {
		got := TableSize(c.refs, c.k)
		if got != c.want {
			t.Errorf("TableSize(%g, %d) = %d, want %d", c.refs, c.k, got, c.want)
		}
		if got < 16 || got&(got-1) != 0 {
			t.Errorf("TableSize(%g, %d) = %d: not a power of two of at least 16", c.refs, c.k, got)
		}
	}
}

func TestRuns(t *testing.T) {
	cases := []struct {
		name                        string
		nrunABL, nrunLast           int
		mem                         int64
		wantIRun, wantABL, wantLast int
	}{
		// 1 MiB grant, 128 B objects, 8 B heap pointers, 4 KiB pages.
		{"derived", 0, 0, 1 << 20, 7710, 85, 128},
		{"one page: the floors", 0, 0, 4096, 30, 2, 2},
		{"smaller than one object: IRUN 1", 0, 0, 100, 1, 2, 2},
		{"explicit fan-ins honoured", 9, 3, 1 << 20, 7710, 9, 3},
		{"explicit fan-ins keep the floors", 1, 1, 1 << 20, 7710, 2, 2},
	}
	for _, c := range cases {
		irun, abl, last := Runs(c.nrunABL, c.nrunLast, c.mem, 128, 8, 4096)
		if irun != c.wantIRun || abl != c.wantABL || last != c.wantLast {
			t.Errorf("%s: Runs = (%d, %d, %d), want (%d, %d, %d)",
				c.name, irun, abl, last, c.wantIRun, c.wantABL, c.wantLast)
		}
		if irun < 1 || abl < 2 || last < 2 {
			t.Errorf("%s: floors broken: (%d, %d, %d)", c.name, irun, abl, last)
		}
	}
}
