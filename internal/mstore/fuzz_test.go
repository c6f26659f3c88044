package mstore

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"mmjoin/internal/exec"
)

// FuzzBTree turns an arbitrary tape into a multiset of items — byte i
// is value 1000+8i under key byte>>3, so a 32-value key space and long
// posting chains from short tapes — bulk-loads it at 128-byte nodes on
// 1 and GOMAXPROCS workers, requires the two segments byte-identical,
// and checks Len, Verify, Get and Postings against a shadow multimap,
// then the merge cursor's scans of the full key space and of [lo, hi]
// ranges drawn from the tape.
func FuzzBTree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}) // one hot key
	f.Add([]byte{0, 4, 8, 12, 2, 6, 10, 14, 1, 5, 9, 13})
	pools := []*exec.Pool{exec.NewPool(1), exec.NewPool(runtime.GOMAXPROCS(0))}
	f.Cleanup(func() {
		for _, p := range pools {
			p.Close()
		}
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<10 {
			t.Skip("cap work per input")
		}
		shadow := map[uint64][]Ptr{}
		items := make([]KV, len(ops))
		for i, op := range ops {
			items[i] = KV{Key: uint64(op >> 3), Val: Ptr(1000 + 8*i)}
			shadow[items[i].Key] = append(shadow[items[i].Key], items[i].Val)
		}
		var segs []*Segment
		var tree *BTree
		for w, p := range pools {
			seg, err := Create(filepath.Join(t.TempDir(), fmt.Sprintf("bt%d", w)), 1<<16)
			if err != nil {
				t.Fatal(err)
			}
			defer seg.Close()
			if tree, err = BulkLoadBTree(context.Background(), p, seg, 128, slices.Clone(items)); err != nil {
				t.Fatal(err)
			}
			segs = append(segs, seg)
		}
		if !bytes.Equal(segs[0].data, segs[1].data) {
			t.Fatalf("segments differ between %d and %d workers", pools[0].Workers(), pools[1].Workers())
		}
		if tree.Len() != len(items) {
			t.Fatalf("Len=%d, shadow %d", tree.Len(), len(items))
		}
		if err := tree.Verify(); err != nil {
			t.Fatal(err)
		}
		// Every key of the space and two past it: Get names a shadow
		// value, Postings yields the shadow's exact multiset.
		for k := uint64(0); k < 34; k++ {
			want := shadow[k]
			if v, ok := tree.Get(k); ok != (len(want) > 0) || ok && !slices.Contains(want, v) {
				t.Fatalf("Get(%d) = %d, %v; shadow %v", k, v, ok, want)
			}
			got := map[Ptr]int{}
			if present := tree.Postings(k, func(v Ptr) bool { got[v]++; return true }); present != (len(want) > 0) {
				t.Fatalf("Postings(%d) present=%v, shadow %d values", k, present, len(want))
			}
			for _, v := range want {
				got[v]--
			}
			for v, n := range got {
				if n != 0 {
					t.Fatalf("key %d: value %d off by %d", k, v, n)
				}
			}
		}
		// A scan of [lo, hi] yields every shadow value under a key in it
		// once, keys non-decreasing: the full key space, then ranges
		// (reaching past both ends of the key space) read off the tape.
		check := func(lo, hi uint64) {
			got := scanTree(tree, lo, hi)
			want := 0
			for k, vs := range shadow {
				if lo <= k && k <= hi {
					want += len(vs)
				}
			}
			if len(got) != want {
				t.Fatalf("scan [%d, %d] visited %d values, shadow %d", lo, hi, len(got), want)
			}
			for x, kv := range got {
				if kv.Key < lo || kv.Key > hi || x > 0 && kv.Key < got[x-1].Key {
					t.Fatalf("scan [%d, %d]: key %d at %d out of range or order", lo, hi, kv.Key, x)
				}
				if !slices.Contains(shadow[kv.Key], kv.Val) {
					t.Fatalf("scan [%d, %d]: value %d not under key %d in shadow", lo, hi, kv.Val, kv.Key)
				}
			}
		}
		check(0, ^uint64(0))
		for x := 0; x+1 < len(ops) && x < 128; x += 2 {
			lo, hi := uint64(ops[x]%34), uint64(ops[x+1]%34)
			check(min(lo, hi), max(lo, hi))
		}
	})
}

// FuzzRTree STR-packs an arbitrary rectangle set, verifies the tree
// invariants, and checks a fuzzed window query against the brute-force
// scan — the bulk-load counterpart of the B-tree tape.
func FuzzRTree(f *testing.F) {
	f.Add([]byte{8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{2, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Add([]byte{16, 100, 100, 10, 10, 100, 100, 10, 10, 50, 50, 200, 200})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 5 || len(raw) > 1<<11 {
			t.Skip()
		}
		fanout := int(raw[0])%15 + 2
		query := Rect{
			MinX: float64(raw[1]), MinY: float64(raw[2]),
			MaxX: float64(raw[1]) + float64(raw[3]),
			MaxY: float64(raw[2]) + float64(raw[4]),
		}
		body := raw[5:]
		n := len(body) / 4
		entries := make([]SpatialEntry, n)
		for i := 0; i < n; i++ {
			b := body[i*4 : i*4+4]
			entries[i] = SpatialEntry{
				Rect: Rect{
					MinX: float64(b[0]), MinY: float64(b[1]),
					MaxX: float64(b[0]) + float64(b[2])/8,
					MaxY: float64(b[1]) + float64(b[3])/8,
				},
				Item: Ptr(i + 1),
			}
		}
		ref := append([]SpatialEntry(nil), entries...)
		seg, err := Create(filepath.Join(t.TempDir(), "rt"), 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		tree, err := BuildRTree(seg, entries, fanout)
		if err != nil {
			t.Fatal(err)
		}
		if tree.Len() != n {
			t.Fatalf("Len=%d, want %d", tree.Len(), n)
		}
		if err := tree.Verify(); err != nil {
			t.Fatal(err)
		}
		want := map[Ptr]bool{}
		for _, e := range ref {
			if e.Rect.Intersects(query) {
				want[e.Item] = true
			}
		}
		got := map[Ptr]bool{}
		tree.Search(query, func(e SpatialEntry) bool {
			if got[e.Item] {
				t.Fatalf("duplicate result %d", e.Item)
			}
			got[e.Item] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("query returned %d entries, brute force %d", len(got), len(want))
		}
		for item := range want {
			if !got[item] {
				t.Fatalf("missing item %d", item)
			}
		}
	})
}
