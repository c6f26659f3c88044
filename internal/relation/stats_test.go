package relation

import (
	"fmt"
	"reflect"
	"testing"
)

// mapStats is the walk the one-pass count replaced, kept as the
// reference: one map per S partition for the distinct count, |Ri,j| by a
// separate pass, skew and |RSj| from those.
func mapStats(w *Workload) (sub [][]int, rs, distinct []int, skew float64) {
	d := w.Spec.D
	sub, rs, distinct = make([][]int, d), make([]int, d), make([]int, d)
	for i := range sub {
		sub[i] = make([]int, d)
		for _, ptr := range w.Refs[i] {
			sub[i][ptr.Part]++
		}
		expect := float64(w.SizeR(i)) / float64(d)
		for j, c := range sub[i] {
			rs[j] += c
			if v := float64(c) / expect; v > skew {
				skew = v
			}
		}
	}
	for j := range distinct {
		seen := make(map[int32]struct{})
		for _, refs := range w.Refs {
			for _, ptr := range refs {
				if int(ptr.Part) == j {
					seen[ptr.Index] = struct{}{}
				}
			}
		}
		distinct[j] = len(seen)
	}
	return sub, rs, distinct, skew
}

func checkStats(t *testing.T, w *Workload) {
	t.Helper()
	sub, rs, distinct, skew := mapStats(w)
	if got := w.SubCounts(); !reflect.DeepEqual(got, sub) {
		t.Errorf("SubCounts = %v, want %v", got, sub)
	}
	if got := w.RSCounts(); !reflect.DeepEqual(got, rs) {
		t.Errorf("RSCounts = %v, want %v", got, rs)
	}
	if got := w.DistinctRefCounts(); !reflect.DeepEqual(got, distinct) {
		t.Errorf("DistinctRefCounts = %v, want %v", got, distinct)
	}
	if got := w.Skew(); got != skew {
		t.Errorf("Skew = %v, want %v", got, skew)
	}
}

func TestStatsMatchMapReference(t *testing.T) {
	for _, d := range []int{1, 3, 4} {
		for _, dist := range []Distribution{Uniform, Zipf, Local, HotPartition} {
			spec := smallSpec()
			spec.NR, spec.NS = 3001, 1502 // neither divides by 3 or 4
			spec.D, spec.Dist = d, dist
			spec.ZipfTheta, spec.LocalFrac, spec.HotFrac = 1.1, 0.7, 0.4
			t.Run(fmt.Sprintf("%v/D=%d", dist, d), func(t *testing.T) {
				checkStats(t, MustGenerate(spec))
			})
		}
	}
}

// A workload read from a store (DB.Workload) or merged by a router takes
// its indexes from the mapped S partitions, whatever their sizes, while
// SizeS deals Spec.NS evenly: an index past SizeS(j) is legal and the
// distinct count must not be sized by it. An R partition may be empty.
func TestStatsOnHandBuiltWorkloads(t *testing.T) {
	spec := Spec{NR: 9, NS: 12, RSize: 16, SSize: 16, PtrSize: 8, D: 3}
	uneven := &Workload{Spec: spec, Refs: [][]SPtr{
		{{0, 0}, {0, 9}, {0, 9}},             // S0 holds 10 objects, SizeS(0) = 4
		{{1, 0}, {2, 0}, {0, 63}, {0, 64}},   // word boundary, far past SizeS
		{{2, 1}, {2, 1}, {0, 4000}, {1, 77}}, // several words of growth at once
	}}
	if int(uneven.Refs[0][1].Index) < uneven.SizeS(0) {
		t.Fatal("test workload does not reach past SizeS")
	}
	checkStats(t, uneven)
	if got, want := uneven.DistinctRefCounts(), []int{5, 2, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("DistinctRefCounts = %v, want %v", got, want)
	}

	empty := &Workload{Spec: spec, Refs: [][]SPtr{
		{{0, 1}, {1, 1}, {1, 1}},
		nil,
		{{2, 3}, {0, 1}},
	}}
	checkStats(t, empty)
	if got, want := empty.SubCounts()[1], []int{0, 0, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("empty R1: SubCounts = %v, want %v", got, want)
	}
}

// The accessors hand out copies: writing to one must not reach the
// cached count the next caller reads.
func TestStatsAccessorsReturnCopies(t *testing.T) {
	w := MustGenerate(smallSpec())
	sub, rs, distinct := w.SubCounts(), w.RSCounts(), w.DistinctRefCounts()
	sub[0][0], rs[0], distinct[0] = -1, -1, -1
	checkStats(t, w)
}
