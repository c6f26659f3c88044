package mstore

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"
)

// newTreeSeg bulk-loads items (reordered by key) into a fresh segment
// with the given node size.
func newTreeSeg(t *testing.T, nodeBytes int, items []KV) (*Segment, *BTree) {
	t.Helper()
	s, err := Create(filepath.Join(t.TempDir(), "bt"), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	tree, err := BulkLoadBTree(context.Background(), nil, s, nodeBytes, items)
	if err != nil {
		t.Fatal(err)
	}
	return s, tree
}

// scanTree reads every (key, value) with lo ≤ key ≤ hi off the merge cursor
// in ascending key order, a duplicated key once per chained value.
func scanTree(tree *BTree, lo, hi uint64) []KV {
	var out []KV
	for it := tree.iter(lo, hi); it.valid(); it.advance() {
		k := it.key()
		tree.forEachValue(it.ref(), func(v Ptr) bool {
			out = append(out, KV{Key: k, Val: v})
			return true
		})
	}
	return out
}

func TestBTreeCreateErrors(t *testing.T) {
	s, err := Create(filepath.Join(t.TempDir(), "bt"), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := BulkLoadBTree(context.Background(), nil, s, 32, nil); err == nil {
		t.Error("tiny node accepted")
	}
	// A value with the chain bit set would read as a posting chain.
	if _, err := BulkLoadBTree(context.Background(), nil, s, 128, []KV{{Key: 9, Val: btChainTag | 64}}); err == nil {
		t.Error("tagged value accepted")
	}
	if _, err := OpenBTree(s, headerSize); err == nil {
		t.Error("OpenBTree on junk succeeded")
	}
}

func TestBTreeInsertGet(t *testing.T) {
	var items []KV
	for k := uint64(0); k < 500; k++ {
		items = append(items, KV{Key: k * 3, Val: Ptr(k + 1000)})
	}
	_, tree := newTreeSeg(t, 128, items) // small nodes make a deep tree
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
	// Pile enough values on one key to make a multi-block chain
	// (btPostCap per block), between two singleton keys.
	const dups = 3*btPostCap + 2
	items := []KV{{Key: 3, Val: 8}, {Key: 11, Val: 16}}
	for v := Ptr(1); v <= dups; v++ {
		items = append(items, KV{Key: 7, Val: v * 32})
	}
	_, tree := newTreeSeg(t, 128, items)
	if tree.Len() != dups+2 {
		t.Errorf("Len = %d, want %d", tree.Len(), dups+2)
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
		if !got[v*32] {
			t.Fatalf("value %d missing from chain", v*32)
		}
	}
	// Get returns some chained value; the cursor's entry expands to the
	// chain, one value per stored value.
	if v, ok := tree.Get(7); !ok || !got[v] {
		t.Errorf("Get(7) = %d,%v", v, ok)
	}
	if visits := len(scanTree(tree, 5, 10)); visits != dups {
		t.Errorf("scan visited %d values, want %d", visits, dups)
	}
}

// TestBTreeDuplicateZipf drives a Zipf-skewed key set — a few keys carry
// long chains, most are singletons — through build/lookup/range, the
// regression shape for index builds over R's duplicate-heavy join keys.
func TestBTreeDuplicateZipf(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	zipf := rand.NewZipf(rng, 1.3, 4, 511)
	ref := map[uint64]int{}
	var items []KV
	for i := 0; i < 6000; i++ {
		k := zipf.Uint64()
		items = append(items, KV{Key: k, Val: Ptr(8 * (i + 8))})
		ref[k]++
	}
	_, tree := newTreeSeg(t, 128, items)
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
	// A full scan expands every chain: 6000 values, keys non-decreasing.
	seen := scanTree(tree, 0, 1<<62)
	if len(seen) != 6000 {
		t.Fatalf("scan visited %d values, want 6000", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].Key < seen[i-1].Key {
			t.Fatalf("scan out of order at %d", i)
		}
	}
}

func TestBTreeRange(t *testing.T) {
	var items []KV
	for k := uint64(0); k < 300; k++ {
		items = append(items, KV{Key: k * 2, Val: Ptr(k)})
	}
	_, tree := newTreeSeg(t, 128, items)
	var got []uint64
	for _, kv := range scanTree(tree, 100, 120) {
		got = append(got, kv.Key)
	}
	want := []uint64{100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120}
	if !slices.Equal(got, want) {
		t.Fatalf("scan [100, 120] got %v", got)
	}
}

func TestBTreePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bt")
	s, err := Create(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var items []KV
	for k := uint64(0); k < 1000; k++ {
		items = append(items, KV{Key: k * 7 % 10007, Val: Ptr(k + 1)})
	}
	tree, err := BulkLoadBTree(context.Background(), nil, s, 256, items)
	if err != nil {
		t.Fatal(err)
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
	if v, ok := tree2.Get(7 % 10007); !ok || v != 2 {
		t.Errorf("Get(7) after reopen = %d,%v, want 2", v, ok)
	}
}

// Property: a tree bulk-loaded from the non-negative ops of a random
// tape behaves like a sorted multimap under the lookups its negative ops
// name, and Verify holds.
func TestQuickBTreeMatchesMap(t *testing.T) {
	f := func(ops []int16) bool {
		s, err := Create(filepath.Join(t.TempDir(), "bt"), 1<<20)
		if err != nil {
			return false
		}
		defer s.Close()
		ref := map[uint64][]Ptr{}
		var items []KV
		for _, op := range ops {
			if k := uint64(op) % 256; op >= 0 {
				v := Ptr(8 * (int64(op) + 8)) // untagged, duplicates allowed
				items = append(items, KV{Key: k, Val: v})
				ref[k] = append(ref[k], v)
			}
		}
		tree, err := BulkLoadBTree(context.Background(), nil, s, 128, items)
		if err != nil {
			return false
		}
		for _, op := range ops {
			if k := uint64(op) % 256; op < 0 {
				v, ok := tree.Get(k)
				if ok != (len(ref[k]) > 0) || ok && !slices.Contains(ref[k], v) {
					return false
				}
			}
		}
		if tree.Len() != len(items) {
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
	keys := map[uint64]bool{}
	var items []KV
	for i := 0; i < 800; i++ {
		k := uint64(rng.Intn(4000))
		if !keys[k] {
			keys[k] = true
			items = append(items, KV{Key: k, Val: Ptr(k + 1)})
		}
	}
	_, tree := newTreeSeg(t, 128, items)
	f := func(rawLo, rawHi uint16) bool {
		lo, hi := uint64(rawLo)%4200, uint64(rawHi)%4200
		if lo > hi {
			lo, hi = hi, lo
		}
		got := scanTree(tree, lo, hi)
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
			if got[i].Key <= got[i-1].Key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// treeDepth counts a tree's levels, leaves included.
func treeDepth(tree *BTree) int {
	levels := 1
	for n := tree.root(); !tree.isLeaf(n); n = tree.refAt(n, 0) {
		levels++
	}
	return levels
}

func TestBTreeLargeScaleAndDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var items []KV
	for _, k := range rng.Perm(20000) {
		items = append(items, KV{Key: uint64(k), Val: Ptr(k + 1)})
	}
	_, tree := newTreeSeg(t, 128, items)
	if err := tree.Verify(); err != nil {
		t.Fatal(err)
	}
	if d := treeDepth(tree); d < 3 {
		t.Fatalf("20000 keys at 128-byte nodes: depth %d, want at least 3", d)
	}
	// Full ordered scan through the merge cursor.
	prev := -1
	for _, kv := range scanTree(tree, 0, 1<<62) {
		if int(kv.Key) != prev+1 || kv.Val != Ptr(kv.Key+1) {
			t.Fatalf("scan gap or wrong value at %d", kv.Key)
		}
		prev = int(kv.Key)
	}
	if prev != 19999 {
		t.Fatalf("scan ended at %d", prev)
	}
}

// TestBTreeReadsAtEveryEdge: Get, Postings and the merge cursor read
// through one descent, so on trees of depth 1, 2 and at least 3 all
// three agree with a shadow map on a key below the first, on every
// stored key, between every two keys and above the last. Every third
// key holds a posting chain.
func TestBTreeReadsAtEveryEdge(t *testing.T) {
	for n, wantDepth := range map[int]int{4: 1, 20: 2, 400: 3} {
		shadow := map[uint64][]Ptr{}
		var items []KV
		var keys []uint64
		for x := 1; x <= n; x++ {
			k := uint64(10 * x)
			keys = append(keys, k)
			for c := range 1 + 2*boolInt(x%3 == 0) {
				items = append(items, KV{Key: k, Val: Ptr(8 * (len(items) + c + 1))})
				shadow[k] = append(shadow[k], items[len(items)-1].Val)
			}
		}
		probes := []uint64{0, 5, uint64(10*n + 5), ^uint64(0)}
		for k := range shadow {
			probes = append(probes, k, k+5)
		}
		_, tree := newTreeSeg(t, 128, items)
		if d := treeDepth(tree); d != wantDepth && (wantDepth < 3 || d < 3) {
			t.Fatalf("%d keys: depth %d, want %d", n, d, wantDepth)
		}
		for _, k := range probes {
			want := shadow[k]
			v, ok := tree.Get(k)
			if ok != (len(want) > 0) || ok && !slices.Contains(want, v) {
				t.Errorf("%d keys: Get(%d) = %d, %v, want one of %v", n, k, v, ok, want)
			}
			var got []Ptr
			present := tree.Postings(k, func(v Ptr) bool { got = append(got, v); return true })
			slices.Sort(got)
			if present != (len(want) > 0) || !slices.Equal(got, want) {
				t.Errorf("%d keys: Postings(%d) = %v, %v, want %v", n, k, got, present, want)
			}
			it := tree.iter(k, ^uint64(0))
			next, _ := slices.BinarySearch(keys, k) // the first key ≥ k
			if it.valid() != (next < n) || it.valid() && it.key() != keys[next] {
				t.Errorf("%d keys: iter(%d) starts at valid=%v, want the key at %d of %v", n, k, it.valid(), next, n)
			}
			if exact := tree.iter(k, k); exact.valid() != (len(want) > 0) {
				t.Errorf("%d keys: iter(%d, %d) valid=%v, want %v", n, k, k, exact.valid(), len(want) > 0)
			}
		}
	}
}

// TestBulkLoadLayoutPinned pins the on-disk format: the SHA-256 of the
// whole segment file after bulk-loading three fixed item sets — no
// items (one empty leaf), one leaf with a posting chain, and a tree of
// depth at least 3 at 128-byte nodes with one- and multi-block posting
// chains. Trees already in files read only if the layout does not move
// by one byte.
func TestBulkLoadLayoutPinned(t *testing.T) {
	var deep []KV
	for x := 1; x <= 400; x++ {
		for range 1 + 2*boolInt(x%3 == 0) + 2*btPostCap*boolInt(x%97 == 0) {
			deep = append(deep, KV{Key: uint64(10 * x), Val: Ptr(8 * (len(deep) + 1))})
		}
	}
	for _, tc := range []struct {
		name      string
		nodeBytes int
		items     []KV
		depth     int
		sum       string
	}{
		{"empty", 0, nil, 1, "6fa4ee48754b179223f680ea9afb0662cab845370ef338cf2e962a71504d5048"},
		{"one leaf", 0, []KV{{Key: 30, Val: 8}, {Key: 10, Val: 16}, {Key: 20, Val: 24}, {Key: 10, Val: 32}}, 1,
			"bebacdd3cf9c6a3cc100d6224a83018553691b5695fd27ccdd119416f6ed7095"},
		{"depth 4 with chains", 128, deep, 4, "6e39d74aa52c76ec61dfda8e0c1bc9b47c44493e154073e9dda66450a22e86f8"},
	} {
		seg, err := Create(filepath.Join(t.TempDir(), "bt"), 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := BulkLoadBTree(context.Background(), nil, seg, tc.nodeBytes, tc.items)
		if err != nil {
			t.Fatal(err)
		}
		if d := treeDepth(tree); d != tc.depth {
			t.Errorf("%s: depth %d, want %d", tc.name, d, tc.depth)
		}
		seg.SetRoot(tree.Head())
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(seg.Path())
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(b)); sum != tc.sum {
			t.Errorf("%s: segment SHA-256 %s, want %s", tc.name, sum, tc.sum)
		}
	}
}
