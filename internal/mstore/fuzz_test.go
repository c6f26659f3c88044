package mstore

import (
	"path/filepath"
	"slices"
	"testing"
)

// FuzzBTree drives one persistent B-tree with an arbitrary operation
// tape — inserts (with duplicate keys, so posting chains grow), posting
// counts and point lookups — against a shadow multimap, then compares
// the merge cursor's scans of the full key space and of [lo, hi] ranges
// drawn from the tape. Keys are drawn from a 32-value space so chains
// and splits are both exercised by short tapes.
func FuzzBTree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}) // one hot key
	f.Add([]byte{0, 4, 8, 12, 2, 6, 10, 14, 1, 5, 9, 13})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<10 {
			t.Skip("cap work per input")
		}
		seg, err := Create(filepath.Join(t.TempDir(), "bt"), 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		// 128-byte nodes force splits within a few dozen inserts.
		tree, err := CreateBTree(seg, 128)
		if err != nil {
			t.Fatal(err)
		}
		shadow := map[uint64][]Ptr{}
		total := 0
		next := Ptr(1000)
		for i, op := range ops {
			k := uint64(op >> 3 % 32)
			switch op % 4 {
			case 0, 1: // bias toward growth
				v := next
				next += 8
				if err := tree.Insert(k, v); err != nil {
					t.Fatalf("op %d: Insert(%d): %v", i, k, err)
				}
				shadow[k] = append(shadow[k], v)
				total++
			case 2:
				n := 0
				tree.Postings(k, func(Ptr) bool { n++; return true })
				if n != len(shadow[k]) {
					t.Fatalf("op %d: Postings(%d) visited %d values, shadow %d", i, k, n, len(shadow[k]))
				}
			case 3:
				v, ok := tree.Get(k)
				if ok != (len(shadow[k]) > 0) {
					t.Fatalf("op %d: Get(%d) present=%v, shadow %d values", i, k, ok, len(shadow[k]))
				}
				if ok {
					found := false
					for _, want := range shadow[k] {
						if v == want {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("op %d: Get(%d) = %d not in shadow", i, k, v)
					}
				}
			}
			if tree.Len() != total {
				t.Fatalf("op %d: Len=%d, shadow %d", i, tree.Len(), total)
			}
		}
		if err := tree.Verify(); err != nil {
			t.Fatal(err)
		}
		// Per-key postings must be the shadow's exact multiset.
		for k, want := range shadow {
			got := map[Ptr]int{}
			tree.Postings(k, func(v Ptr) bool { got[v]++; return true })
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
