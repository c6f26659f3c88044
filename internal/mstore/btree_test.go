package mstore

import (
	"context"
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
	// Get returns some chained value; the cursor's entry expands to the
	// chain, one value per stored value.
	if v, ok := tree.Get(7); !ok || !got[v] {
		t.Errorf("Get(7) = %d,%v", v, ok)
	}
	if visits := len(scanTree(tree, 0, 100)); visits != dups {
		t.Errorf("scan visited %d values, want %d", visits, dups)
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
	_, tree := newTreeSeg(t, 128)
	for k := uint64(0); k < 300; k++ {
		tree.Insert(k*2, Ptr(k))
	}
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
	// Full ordered scan through the merge cursor.
	prev := -1
	for _, kv := range scanTree(tree, 0, 1<<62) {
		if int(kv.Key) != prev+1 {
			t.Fatalf("scan gap at %d", kv.Key)
		}
		prev = int(kv.Key)
	}
	if prev != 19999 {
		t.Fatalf("scan ended at %d", prev)
	}
}

// TestBTreeReadsAtEveryEdge: Get, Postings and the merge cursor read
// through one descent, so on trees of depth 1, 2 and at least 3, built
// by Insert and by BulkLoadBTree, all three agree with a shadow map on a
// key below the first, on every stored key, between every two keys and
// above the last. Every third key holds a posting chain.
func TestBTreeReadsAtEveryEdge(t *testing.T) {
	for n, depth := range map[int]int{4: 1, 20: 2, 400: 3} {
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
		seg, inserted := newTreeSeg(t, 128)
		for _, kv := range items {
			if err := inserted.Insert(kv.Key, kv.Val); err != nil {
				t.Fatal(err)
			}
		}
		loaded, err := BulkLoadBTree(context.Background(), nil, seg, 128, slices.Clone(items))
		if err != nil {
			t.Fatal(err)
		}
		for name, tree := range map[string]*BTree{"inserted": inserted, "bulk-loaded": loaded} {
			levels := 1
			for node := tree.root(); !tree.isLeaf(node); node = tree.refAt(node, 0) {
				levels++
			}
			if levels != depth && (depth < 3 || levels < 3) {
				t.Fatalf("%s, %d keys: depth %d, want %d", name, n, levels, depth)
			}
			for _, k := range probes {
				want := shadow[k]
				v, ok := tree.Get(k)
				if ok != (len(want) > 0) || ok && !slices.Contains(want, v) {
					t.Errorf("%s depth %d: Get(%d) = %d, %v, want one of %v", name, depth, k, v, ok, want)
				}
				var got []Ptr
				present := tree.Postings(k, func(v Ptr) bool { got = append(got, v); return true })
				slices.Sort(got)
				if present != (len(want) > 0) || !slices.Equal(got, want) {
					t.Errorf("%s depth %d: Postings(%d) = %v, %v, want %v", name, depth, k, got, present, want)
				}
				it := tree.iter(k, ^uint64(0))
				next, _ := slices.BinarySearch(keys, k) // the first key ≥ k
				if it.valid() != (next < n) || it.valid() && it.key() != keys[next] {
					t.Errorf("%s depth %d: iter(%d) starts at valid=%v, want the key at %d of %v", name, depth, k, it.valid(), next, n)
				}
				if exact := tree.iter(k, k); exact.valid() != (len(want) > 0) {
					t.Errorf("%s depth %d: iter(%d, %d) valid=%v, want %v", name, depth, k, k, exact.valid(), len(want) > 0)
				}
			}
		}
	}
}
