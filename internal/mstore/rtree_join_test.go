package mstore

import (
	"context"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"mmjoin/internal/exec"
)

// spatialPair keys a multiset of (a.Item, b.Item) pairs by the two
// virtual pointers — the order-insensitive result shape the join must
// reproduce at every worker count.
type spatialPair struct{ a, b Ptr }

func bruteSpatialJoin(as, bs []SpatialEntry) map[spatialPair]int {
	out := map[spatialPair]int{}
	for _, ea := range as {
		for _, eb := range bs {
			if ea.Rect.Intersects(eb.Rect) {
				out[spatialPair{ea.Item, eb.Item}]++
			}
		}
	}
	return out
}

func buildRTreePair(t *testing.T, na, nb, fa, fb int, seed int64) (*RTree, *RTree, []SpatialEntry, []SpatialEntry) {
	t.Helper()
	s, err := Create(filepath.Join(t.TempDir(), "rtj"), 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	rng := rand.New(rand.NewSource(seed))
	mk := func(n int, base Ptr) ([]SpatialEntry, []SpatialEntry) {
		entries := make([]SpatialEntry, n)
		for i := range entries {
			x, y := rng.Float64()*500, rng.Float64()*500
			entries[i] = SpatialEntry{
				Rect: Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*15, MaxY: y + rng.Float64()*15},
				Item: base + Ptr(i),
			}
		}
		return entries, append([]SpatialEntry(nil), entries...)
	}
	ea, refA := mk(na, 1)
	eb, refB := mk(nb, 1<<20)
	ta, err := BuildRTree(s, ea, fa)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := BuildRTree(s, eb, fb)
	if err != nil {
		t.Fatal(err)
	}
	return ta, tb, refA, refB
}

// joinPairs runs the intersection join of ta and tb on a pool of
// workers, each worker counting into its own multiset, and folds them.
func joinPairs(t *testing.T, ta, tb *RTree, workers int) map[spatialPair]int {
	t.Helper()
	p := exec.NewPool(workers)
	defer p.Close()
	per := make([]map[spatialPair]int, p.Workers())
	for i := range per {
		per[i] = map[spatialPair]int{}
	}
	if err := ta.ParallelIntersectJoin(context.Background(), p, tb, func(w int, a, b SpatialEntry) {
		per[w][spatialPair{a.Item, b.Item}]++
	}); err != nil {
		t.Fatal(err)
	}
	got := map[spatialPair]int{}
	for _, m := range per {
		for k, n := range m {
			got[k] += n
		}
	}
	return got
}

// samePairs fails unless got and want are the same multiset.
func samePairs(t *testing.T, workers int, got, want map[spatialPair]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("workers=%d: %d distinct pairs, want %d", workers, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("workers=%d: pair %v reported %d times, want %d", workers, k, got[k], n)
		}
	}
}

func TestRTreeIntersectJoinMatchesBruteForce(t *testing.T) {
	cases := []struct {
		name           string
		na, nb, fa, fb int
		seed           int64
	}{
		{"balanced", 900, 900, 8, 8, 1},
		{"asymmetric-sizes", 40, 2000, 8, 8, 2}, // different heights
		{"asymmetric-fanout", 600, 600, 4, 16, 3},
		{"tiny", 3, 5, 8, 8, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ta, tb, refA, refB := buildRTreePair(t, tc.na, tc.nb, tc.fa, tc.fb, tc.seed)
			if tc.name == "asymmetric-sizes" && ta.Height() == tb.Height() {
				t.Fatalf("heights %d and %d, want unequal", ta.Height(), tb.Height())
			}
			want := bruteSpatialJoin(refA, refB)
			for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
				samePairs(t, workers, joinPairs(t, ta, tb, workers), want)
				samePairs(t, workers, joinPairs(t, tb, ta, workers), swapPairs(want))
			}
		})
	}
}

// swapPairs is the result of the join with its two sides exchanged.
func swapPairs(m map[spatialPair]int) map[spatialPair]int {
	out := make(map[spatialPair]int, len(m))
	for k, n := range m {
		out[spatialPair{k.b, k.a}] = n
	}
	return out
}

func TestRTreeIntersectJoinEmpty(t *testing.T) {
	s, err := Create(filepath.Join(t.TempDir(), "rtj"), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	empty, err := BuildRTree(s, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	one, err := BuildRTree(s, []SpatialEntry{{Rect: Rect{0, 0, 1, 1}, Item: 7}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*RTree{{empty, one}, {one, empty}, {empty, empty}} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			if got := joinPairs(t, pair[0], pair[1], workers); len(got) != 0 {
				t.Errorf("workers=%d: an empty side joined %v", workers, got)
			}
		}
	}
	if got := joinPairs(t, one, one, 1); len(got) != 1 || got[spatialPair{7, 7}] != 1 {
		t.Errorf("a one-entry tree joined with itself: %v, want the one pair", got)
	}
}

// The parallel descent must report the same pair multiset for every
// worker count, including under the race detector (per-worker
// accumulation, folded after the barrier).
func TestRTreeParallelIntersectJoinGrid(t *testing.T) {
	ta, tb, refA, refB := buildRTreePair(t, 1200, 1500, 8, 8, 6)
	want := bruteSpatialJoin(refA, refB)
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		samePairs(t, workers, joinPairs(t, ta, tb, workers), want)
	}
}
