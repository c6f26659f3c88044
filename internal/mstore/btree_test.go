package mstore

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"
)

func newTreeSeg(t *testing.T, nodeBytes int) (*Segment, *BTree) {
	t.Helper()
	s, err := Create(filepath.Join(t.TempDir(), "bt"), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	tree, err := CreateBTree(s, nodeBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s, tree
}

func TestBTreeCreateErrors(t *testing.T) {
	s, err := Create(filepath.Join(t.TempDir(), "bt"), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := CreateBTree(s, 32); err == nil {
		t.Error("tiny node accepted")
	}
	if _, err := OpenBTree(s, headerSize); err == nil {
		t.Error("OpenBTree on junk succeeded")
	}
}

func TestBTreeInsertGet(t *testing.T) {
	_, tree := newTreeSeg(t, 128) // small nodes force splits early
	for k := uint64(0); k < 500; k++ {
		if err := tree.Insert(k*3, Ptr(k+1000)); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Len() != 500 {
		t.Fatalf("Len = %d", tree.Len())
	}
	if err := tree.Verify(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 500; k++ {
		v, ok := tree.Get(k * 3)
		if !ok || v != Ptr(k+1000) {
			t.Fatalf("Get(%d) = %d,%v", k*3, v, ok)
		}
		if _, ok := tree.Get(k*3 + 1); ok {
			t.Fatalf("Get(%d) should miss", k*3+1)
		}
	}
}

func TestBTreeDuplicateChains(t *testing.T) {
	_, tree := newTreeSeg(t, 128)
	// Pile enough values on one key to force direct ref → chain block →
	// multi-block chain transitions (btPostCap per block).
	const dups = 3*btPostCap + 2
	for v := Ptr(1); v <= dups; v++ {
		if err := tree.Insert(7, v*8); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Len() != dups {
		t.Errorf("Len = %d, want %d", tree.Len(), dups)
	}
	if err := tree.Verify(); err != nil {
		t.Fatal(err)
	}
	got := map[Ptr]bool{}
	tree.Postings(7, func(v Ptr) bool {
		if got[v] {
			t.Fatalf("value %d visited twice", v)
		}
		got[v] = true
		return true
	})
	if len(got) != dups {
		t.Fatalf("Postings visited %d values, want %d", len(got), dups)
	}
	for v := Ptr(1); v <= dups; v++ {
		if !got[v*8] {
			t.Fatalf("value %d missing from chain", v*8)
		}
	}
	// Get returns some chained value; Range expands the chain, one
	// callback per stored value.
	if v, ok := tree.Get(7); !ok || !got[v] {
		t.Errorf("Get(7) = %d,%v", v, ok)
	}
	visits := 0
	tree.Range(0, 100, func(k uint64, v Ptr) bool {
		visits++
		return true
	})
	if visits != dups {
		t.Errorf("Range visited %d values, want %d", visits, dups)
	}
	// A tagged value (chain bit set) must still be rejected.
	if err := tree.Insert(9, btChainTag|64); err == nil {
		t.Error("tagged value accepted")
	}
}

// TestBTreeDuplicateZipf drives a Zipf-skewed key set — a few keys carry
// long chains, most are singletons — through insert/lookup/range, the
// regression shape for index builds over R's duplicate-heavy join keys.
func TestBTreeDuplicateZipf(t *testing.T) {
	_, tree := newTreeSeg(t, 128)
	rng := rand.New(rand.NewSource(41))
	zipf := rand.NewZipf(rng, 1.3, 4, 511)
	ref := map[uint64]int{}
	for i := 0; i < 6000; i++ {
		k := zipf.Uint64()
		if err := tree.Insert(k, Ptr(8*(i+8))); err != nil {
			t.Fatal(err)
		}
		ref[k]++
	}
	if err := tree.Verify(); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 6000 {
		t.Fatalf("Len = %d", tree.Len())
	}
	for k, want := range ref {
		n := 0
		tree.Postings(k, func(Ptr) bool { n++; return true })
		if n != want {
			t.Fatalf("key %d: %d values, want %d", k, n, want)
		}
	}
	// Range expands every chain: 6000 callbacks, keys non-decreasing.
	var seen []uint64
	tree.Range(0, 1<<62, func(k uint64, v Ptr) bool {
		seen = append(seen, k)
		return true
	})
	if len(seen) != 6000 {
		t.Fatalf("Range visited %d values, want 6000", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Fatalf("Range out of order at %d", i)
		}
	}
}

func TestBTreeRange(t *testing.T) {
	_, tree := newTreeSeg(t, 128)
	for k := uint64(0); k < 300; k++ {
		tree.Insert(k*2, Ptr(k))
	}
	var got []uint64
	tree.Range(100, 120, func(k uint64, v Ptr) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120}
	if len(got) != len(want) {
		t.Fatalf("Range got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range got %v", got)
		}
	}
	// Early stop.
	count := 0
	tree.Range(0, 1<<62, func(uint64, Ptr) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestBTreePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bt")
	s, err := Create(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := CreateBTree(s, 256)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1000; k++ {
		tree.Insert(k*7%10007, Ptr(k+1))
	}
	s.SetRoot(tree.Head())
	want := tree.Len()
	s.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tree2, err := OpenBTree(s2, s2.Root())
	if err != nil {
		t.Fatal(err)
	}
	if tree2.Len() != want {
		t.Fatalf("Len = %d after reopen, want %d", tree2.Len(), want)
	}
	if err := tree2.Verify(); err != nil {
		t.Fatal(err)
	}
	if v, ok := tree2.Get(7 % 10007); !ok || v == 0 {
		t.Error("lookup after reopen failed")
	}
}

// Property: the tree behaves like a sorted multimap under random inserts
// and lookups, and Verify holds at the end.
func TestQuickBTreeMatchesMap(t *testing.T) {
	f := func(ops []int16) bool {
		s, err := Create(filepath.Join(t.TempDir(), "bt"), 1<<20)
		if err != nil {
			return false
		}
		defer s.Close()
		tree, err := CreateBTree(s, 128)
		if err != nil {
			return false
		}
		ref := map[uint64][]Ptr{}
		total := 0
		for _, op := range ops {
			k := uint64(op) % 256
			if op >= 0 {
				v := Ptr(8 * (int64(op) + 8)) // untagged, duplicates allowed
				if tree.Insert(k, v) != nil {
					return false
				}
				ref[k] = append(ref[k], v)
				total++
			} else {
				v, ok := tree.Get(k)
				if ok != (len(ref[k]) > 0) || ok && !slices.Contains(ref[k], v) {
					return false
				}
			}
		}
		if tree.Len() != total {
			return false
		}
		if tree.Verify() != nil {
			return false
		}
		for k, vals := range ref {
			want := map[Ptr]int{}
			for _, v := range vals {
				want[v]++
			}
			tree.Postings(k, func(v Ptr) bool {
				want[v]--
				return true
			})
			for _, n := range want {
				if n != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: range scans return exactly the keys in [lo, hi] in order.
func TestQuickBTreeRange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	_, tree := newTreeSeg(t, 128)
	keys := map[uint64]bool{}
	for i := 0; i < 800; i++ {
		k := uint64(rng.Intn(4000))
		if !keys[k] {
			keys[k] = true
			tree.Insert(k, Ptr(k+1))
		}
	}
	f := func(rawLo, rawHi uint16) bool {
		lo, hi := uint64(rawLo)%4200, uint64(rawHi)%4200
		if lo > hi {
			lo, hi = hi, lo
		}
		var got []uint64
		tree.Range(lo, hi, func(k uint64, v Ptr) bool {
			got = append(got, k)
			return true
		})
		want := 0
		for k := range keys {
			if k >= lo && k <= hi {
				want++
			}
		}
		if len(got) != want {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBTreeLargeScaleAndDepth(t *testing.T) {
	_, tree := newTreeSeg(t, 128)
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(20000)
	for _, k := range perm {
		if err := tree.Insert(uint64(k), Ptr(k+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Verify(); err != nil {
		t.Fatal(err)
	}
	// Full ordered scan via Range.
	prev := -1
	tree.Range(0, 1<<62, func(k uint64, v Ptr) bool {
		if int(k) != prev+1 {
			t.Fatalf("scan gap at %d", k)
		}
		prev = int(k)
		return true
	})
	if prev != 19999 {
		t.Fatalf("scan ended at %d", prev)
	}
}
