package mstore

import (
	"context"
	"fmt"
	"sort"

	"mmjoin/internal/exec"
)

// Parallel B-tree bulk-load, in the fork-join shape of "Parallel
// Joinable B-Trees in the Fork-Join I/O Model": the input is sorted by
// parallel chunk sorts joined through pairwise merge rounds, the whole
// tree layout (leaf array, posting arena, one contiguous node array per
// upper level) is computed sequentially from the sorted input, and
// workers then fill disjoint node ranges of every level in parallel.
// Because the layout is a pure function of the items, the built tree is
// byte-identical at any worker count — the property the index
// determinism tests pin.

// KV is one (key, value) item of a bulk load.
type KV struct {
	Key uint64
	Val Ptr
}

// bulkMorsel is how many nodes one fill task covers; a node is up to a
// few hundred entries, so this is on the order of a morsel of objects.
const bulkMorsel = 16

// BulkLoadBTree builds a B-tree over items inside seg with the given
// node size (0 ⇒ one 4K page), running the sort and the node fills as
// tasks on p (nil ⇒ an ephemeral GOMAXPROCS pool). The item slice is
// reordered (stably, by key). Leaves are packed full: the load writes
// the minimal number of nodes, and a later Insert into a full leaf
// simply splits it. Each internal key is the first key under the child
// to its right, the separator Insert's splits promote, so Get, Postings
// and the merge cursor find every key through the one read descent
// (BTree.iter: equal keys route right).
func BulkLoadBTree(ctx context.Context, p *exec.Pool, seg *Segment, nodeBytes int, items []KV) (*BTree, error) {
	if nodeBytes == 0 {
		nodeBytes = 4096
	}
	if nodeBytes < minNodeSize {
		return nil, fmt.Errorf("mstore: btree node %d below minimum %d", nodeBytes, minNodeSize)
	}
	maxKeys := btMaxKeys(nodeBytes)
	if maxKeys < 3 {
		return nil, fmt.Errorf("mstore: btree node %d too small for 3 keys", nodeBytes)
	}
	for _, kv := range items {
		if kv.Val&btChainTag != 0 {
			return nil, fmt.Errorf("mstore: btree value %d has the chain tag bit set", kv.Val)
		}
	}
	if p == nil {
		p = exec.NewPool(0)
		defer p.Close()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if len(items) == 0 {
		return CreateBTree(seg, nodeBytes)
	}
	if err := sortKV(ctx, p, items); err != nil {
		return nil, err
	}

	// Group layout: starts[g] is the first item of distinct-key group g,
	// blocksBefore[g] the posting blocks preceding it in the arena.
	starts := make([]int, 0, len(items)+1)
	for x := 0; x < len(items); x++ {
		if x == 0 || items[x].Key != items[x-1].Key {
			starts = append(starts, x)
		}
	}
	nKeys := len(starts)
	starts = append(starts, len(items))
	blocksBefore := make([]int64, nKeys+1)
	for g := 0; g < nKeys; g++ {
		blocksBefore[g+1] = blocksBefore[g]
		if n := starts[g+1] - starts[g]; n > 1 {
			blocksBefore[g+1] += int64((n + btPostCap - 1) / btPostCap)
		}
	}

	// Sequential allocation of every region; the parallel fills below
	// write disjoint ranges of them.
	hdr, err := seg.Alloc(btHdrBytes)
	if err != nil {
		return nil, err
	}
	t := &BTree{seg: seg, hdr: hdr, nodeBytes: nodeBytes, maxKeys: maxKeys}
	seg.PutU32(hdr+btOffMagic, btMagic)
	seg.PutU32(hdr+btOffNode, uint32(nodeBytes))

	nLeaves := (nKeys + maxKeys - 1) / maxKeys
	leafBase, err := seg.Alloc(int64(nLeaves) * int64(nodeBytes))
	if err != nil {
		return nil, err
	}
	postBase := Ptr(0)
	if total := blocksBefore[nKeys]; total > 0 {
		if postBase, err = seg.Alloc(total * btPostBytes); err != nil {
			return nil, err
		}
	}

	leafKeys := func(l int) (lo, hi int) { // distinct-key groups of leaf l
		return l * maxKeys, min((l+1)*maxKeys, nKeys)
	}
	err = p.Run(ctx, rangeTasks(nil, nLeaves, bulkMorsel, func(_, lo, hi int) error {
		for l := lo; l < hi; l++ {
			n := leafBase + Ptr(int64(l)*int64(nodeBytes))
			gLo, gHi := leafKeys(l)
			t.seg.PutU32(n, 1)
			t.setCount(n, gHi-gLo)
			next := Ptr(0)
			if l+1 < nLeaves {
				next = leafBase + Ptr(int64(l+1)*int64(nodeBytes))
			}
			t.setNext(n, next)
			for g := gLo; g < gHi; g++ {
				t.setKeyAt(n, g-gLo, items[starts[g]].Key)
				t.setRefAt(n, g-gLo, t.fillGroup(postBase, blocksBefore[g], items[starts[g]:starts[g+1]]))
			}
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}

	// Upper levels, fork-join: each level is one contiguous node array
	// whose children are split evenly (every parent keeps ≥ 2 children),
	// filled in parallel before the next level is derived from it.
	childBase, childCount := leafBase, nLeaves
	firstKey := make([]uint64, nLeaves) // first key under each child subtree
	for l := 0; l < nLeaves; l++ {
		gLo, _ := leafKeys(l)
		firstKey[l] = items[starts[gLo]].Key
	}
	for childCount > 1 {
		fan := maxKeys + 1
		parents := (childCount + fan - 1) / fan
		base, perParent, extra := childBase, childCount/parents, childCount%parents
		levelBase, err := seg.Alloc(int64(parents) * int64(nodeBytes))
		if err != nil {
			return nil, err
		}
		childAt := func(pn int) (lo, hi int) { // children of parent pn
			lo = pn*perParent + min(pn, extra)
			return lo, lo + perParent + boolInt(pn < extra)
		}
		err = p.Run(ctx, rangeTasks(nil, parents, bulkMorsel, func(_, lo, hi int) error {
			for pn := lo; pn < hi; pn++ {
				n := levelBase + Ptr(int64(pn)*int64(nodeBytes))
				cLo, cHi := childAt(pn)
				t.seg.PutU32(n, 0)
				t.setCount(n, cHi-cLo-1)
				t.setNext(n, 0)
				for c := cLo; c < cHi; c++ {
					if c > cLo {
						t.setKeyAt(n, c-cLo-1, firstKey[c])
					}
					t.setRefAt(n, c-cLo, base+Ptr(int64(c)*int64(nodeBytes)))
				}
			}
			return nil
		}))
		if err != nil {
			return nil, err
		}
		parentFirst := make([]uint64, parents)
		for pn := 0; pn < parents; pn++ {
			cLo, _ := childAt(pn)
			parentFirst[pn] = firstKey[cLo]
		}
		childBase, childCount, firstKey = levelBase, parents, parentFirst
	}

	seg.PutU64(hdr+btOffRoot, uint64(childBase))
	seg.PutU64(hdr+btOffCount, uint64(len(items)))
	seg.PutU64(hdr+btOffFirst, uint64(leafBase))
	return t, nil
}

// fillGroup writes one distinct key's values: a direct ref for a single
// value, otherwise a posting chain carved from the arena at block index
// blk, linked head-first so iteration follows the sorted input order.
func (t *BTree) fillGroup(postBase Ptr, blk int64, vals []KV) Ptr {
	if len(vals) == 1 {
		return vals[0].Val
	}
	head := postBase + Ptr(blk*btPostBytes)
	for b := head; len(vals) > 0; b += btPostBytes {
		c := min(len(vals), btPostCap)
		next := Ptr(0)
		if c < len(vals) {
			next = b + btPostBytes
		}
		t.seg.PutU64(b, uint64(next))
		t.seg.PutU32(b+8, uint32(c))
		t.seg.PutU32(b+12, 0)
		for i := 0; i < c; i++ {
			t.seg.PutU64(b+16+Ptr(8*i), uint64(vals[i].Val))
		}
		vals = vals[c:]
	}
	return head | btChainTag
}

// sortKV stably sorts items by key: parallel chunk sorts, then pairwise
// left-priority merge rounds. Stable merge of stably-sorted contiguous
// chunks reproduces the unique global stable order, so the result does
// not depend on the chunk boundaries (and hence not on the worker
// count).
func sortKV(ctx context.Context, p *exec.Pool, items []KV) error {
	n := len(items)
	chunk := max(morselObjs, (n+4*p.Workers()-1)/(4*p.Workers()))
	var bounds []int
	for lo := 0; lo < n; lo += chunk {
		bounds = append(bounds, lo)
	}
	bounds = append(bounds, n)
	var tasks []exec.Task
	for i := 0; i+1 < len(bounds); i++ {
		s := items[bounds[i]:bounds[i+1]]
		tasks = append(tasks, func(int) error {
			sort.SliceStable(s, func(a, b int) bool { return s[a].Key < s[b].Key })
			return nil
		})
	}
	if err := p.Run(ctx, tasks); err != nil {
		return err
	}
	scratch := make([]KV, n)
	src, dst := items, scratch
	for len(bounds) > 2 {
		var next []int
		tasks = tasks[:0]
		for i := 0; i+1 < len(bounds); i += 2 {
			next = append(next, bounds[i])
			if i+2 >= len(bounds) { // odd tail: copy through
				s, d := src[bounds[i]:bounds[i+1]], dst[bounds[i]:bounds[i+1]]
				tasks = append(tasks, func(int) error { copy(d, s); return nil })
				continue
			}
			a, b, d := src[bounds[i]:bounds[i+1]], src[bounds[i+1]:bounds[i+2]], dst[bounds[i]:bounds[i+2]]
			tasks = append(tasks, func(int) error { mergeKV(d, a, b); return nil })
		}
		next = append(next, n)
		if err := p.Run(ctx, tasks); err != nil {
			return err
		}
		bounds = next
		src, dst = dst, src
	}
	if &src[0] != &items[0] {
		copy(items, src)
	}
	return nil
}

// mergeKV merges two key-sorted runs into dst, ties taken from a (the
// left run) to preserve stability.
func mergeKV(dst, a, b []KV) {
	i, j := 0, 0
	for k := range dst {
		switch {
		case i < len(a) && (j >= len(b) || a[i].Key <= b[j].Key):
			dst[k] = a[i]
			i++
		default:
			dst[k] = b[j]
			j++
		}
	}
}
