package mstore

import (
	"fmt"
)

// BTree is a persistent B+tree stored entirely inside a segment: nodes
// are fixed-size blocks, child and value references are virtual pointers
// (offsets), and leaves are chained for range scans. Because the segment
// is exactly positioned, a tree built in one process is usable after
// reopening the file with no pointer fixup — the µDatabase result the
// paper builds on ("data structures such as B-Trees ... can be
// implemented as efficiently and effectively in this environment").
//
// Keys are uint64; values are virtual pointers (Ptr), typically into a
// relation in the same or another segment. Duplicate keys are supported
// through posting chains: the tree's key array stays strictly unique
// (the descent never sees duplicates), and a key with more than one
// value stores a btChainTag-tagged pointer to a chain of fixed-capacity
// posting blocks instead of a direct value. Values must therefore leave
// the tag bit clear, which every segment offset does. A tree is built
// once, by BulkLoadBTree, from its complete item set, and then only
// read: like the segment it lives in, it has no insert or delete.
type BTree struct {
	seg       *Segment
	hdr       Ptr
	nodeBytes int
	maxKeys   int
}

// Tree header layout: magic u32, nodeBytes u32, root Ptr, count u64,
// first-leaf Ptr.
const (
	btMagic    = 0x42545231 // "BTR1"
	btHdrBytes = 40
	btOffMagic = 0
	btOffNode  = 4
	btOffRoot  = 8
	btOffCount = 16
	btOffFirst = 24
)

// Node layout: flags u32 (1 = leaf), count u32, next Ptr (leaves only),
// then maxKeys keys (u64) followed by maxKeys+1 refs (u64). For leaves
// refs[0..count-1] are values; for internal nodes refs[0..count] are
// children.
const nodeHdrBytes = 16

// Posting chains: a leaf ref with btChainTag set points at a chain of
// posting blocks (next Ptr, count u32, pad u32, btPostCap values) that
// hold every value stored under one duplicated key. One cache line per
// block.
const (
	btChainTag  = Ptr(1) << 63
	btPostCap   = 6
	btPostBytes = 16 + 8*btPostCap
)

// btMaxKeys sizes the key array with one key and one ref of split
// slack: nodeHdr + 8·(maxKeys+1) + 8·(maxKeys+2) ≤ nodeBytes. Nothing
// splits a node, but the slack fixes where the refs start in every node
// of every tree already in a file, so it stays.
func btMaxKeys(nodeBytes int) int {
	return (nodeBytes - nodeHdrBytes - 24) / 16
}

// OpenBTree attaches to a tree previously built at hdr.
func OpenBTree(seg *Segment, hdr Ptr) (*BTree, error) {
	if seg.U32(hdr+btOffMagic) != btMagic {
		return nil, fmt.Errorf("mstore: no btree at %d", hdr)
	}
	nodeBytes := int(seg.U32(hdr + btOffNode))
	t := &BTree{seg: seg, hdr: hdr, nodeBytes: nodeBytes}
	t.maxKeys = btMaxKeys(nodeBytes)
	return t, nil
}

// Head returns the tree's persistent header pointer.
func (t *BTree) Head() Ptr { return t.hdr }

// Len returns the number of stored values (a duplicated key counts once
// per chained value).
func (t *BTree) Len() int { return int(t.seg.U64(t.hdr + btOffCount)) }

func (t *BTree) root() Ptr { return Ptr(t.seg.U64(t.hdr + btOffRoot)) }

// Node accessors.

func (t *BTree) isLeaf(n Ptr) bool { return t.seg.U32(n)&1 == 1 }
func (t *BTree) count(n Ptr) int   { return int(t.seg.U32(n + 4)) }
func (t *BTree) setCount(n Ptr, c int) {
	t.seg.PutU32(n+4, uint32(c))
}
func (t *BTree) next(n Ptr) Ptr    { return Ptr(t.seg.U64(n + 8)) }
func (t *BTree) setNext(n, nx Ptr) { t.seg.PutU64(n+8, uint64(nx)) }
func (t *BTree) keyAt(n Ptr, i int) uint64 {
	return t.seg.U64(n + nodeHdrBytes + Ptr(8*i))
}
func (t *BTree) setKeyAt(n Ptr, i int, k uint64) {
	t.seg.PutU64(n+nodeHdrBytes+Ptr(8*i), k)
}
func (t *BTree) refBase(n Ptr) Ptr { return n + nodeHdrBytes + Ptr(8*(t.maxKeys+1)) }
func (t *BTree) refAt(n Ptr, i int) Ptr {
	return Ptr(t.seg.U64(t.refBase(n) + Ptr(8*i)))
}
func (t *BTree) setRefAt(n Ptr, i int, v Ptr) {
	t.seg.PutU64(t.refBase(n)+Ptr(8*i), uint64(v))
}

// Posting-chain accessors.

func (t *BTree) postNext(blk Ptr) Ptr  { return Ptr(t.seg.U64(blk)) }
func (t *BTree) postCount(blk Ptr) int { return int(t.seg.U32(blk + 8)) }
func (t *BTree) postVal(blk Ptr, i int) Ptr {
	return Ptr(t.seg.U64(blk + 16 + Ptr(8*i)))
}

// forEachValue calls fn for every value stored under one leaf ref — the
// direct value, or every posting-chain member — stopping early if fn
// returns false.
func (t *BTree) forEachValue(ref Ptr, fn func(v Ptr) bool) {
	if ref&btChainTag == 0 {
		fn(ref)
		return
	}
	for blk := ref &^ btChainTag; blk != 0; blk = t.postNext(blk) {
		for i, c := 0, t.postCount(blk); i < c; i++ {
			if !fn(t.postVal(blk, i)) {
				return
			}
		}
	}
}

// firstValue returns the first value under a leaf ref.
func (t *BTree) firstValue(ref Ptr) Ptr {
	if ref&btChainTag == 0 {
		return ref
	}
	return t.postVal(ref&^btChainTag, 0)
}

// chainLen counts the values stored under a leaf ref.
func (t *BTree) chainLen(ref Ptr) int {
	if ref&btChainTag == 0 {
		return 1
	}
	n := 0
	for blk := ref &^ btChainTag; blk != 0; blk = t.postNext(blk) {
		n += t.postCount(blk)
	}
	return n
}

// search returns the index of the first key ≥ k in node n.
func (t *BTree) search(n Ptr, k uint64) int {
	lo, hi := 0, t.count(n)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.keyAt(n, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns a value stored under k (the first in chain order when the
// key holds several).
func (t *BTree) Get(k uint64) (Ptr, bool) {
	if it := t.iter(k, k); it.valid() {
		return t.firstValue(it.ref()), true
	}
	return 0, false
}

// Postings calls fn for every value stored under k, stopping early if fn
// returns false; it reports whether k was present.
func (t *BTree) Postings(k uint64, fn func(v Ptr) bool) bool {
	it := t.iter(k, k)
	if it.valid() {
		t.forEachValue(it.ref(), fn)
	}
	return it.valid()
}

// btIter streams the leaf-chain entries of [lo, hi] in ascending key
// order: one entry per distinct key, with ref() exposing the raw leaf
// ref (expand duplicates through forEachValue). It is the cursor the
// index-merge join zips two trees with, and Get and Postings read the
// one entry of [k, k] through it.
type btIter struct {
	t  *BTree
	n  Ptr
	i  int
	hi uint64
}

// iter positions a cursor at the first key ≥ lo: the tree's one
// root-to-leaf descent for reads, on which equal keys route right in
// internal nodes.
func (t *BTree) iter(lo, hi uint64) btIter {
	n := t.root()
	for !t.isLeaf(n) {
		i := t.search(n, lo)
		if i < t.count(n) && t.keyAt(n, i) == lo {
			i++ // equal keys route right in internal nodes
		}
		n = t.refAt(n, i)
	}
	it := btIter{t: t, n: n, i: t.search(n, lo), hi: hi}
	it.norm()
	return it
}

// norm skips exhausted leaves and clamps at hi.
func (it *btIter) norm() {
	for it.n != 0 && it.i >= it.t.count(it.n) {
		it.n = it.t.next(it.n)
		it.i = 0
	}
	if it.n != 0 && it.t.keyAt(it.n, it.i) > it.hi {
		it.n = 0
	}
}

func (it *btIter) valid() bool { return it.n != 0 }
func (it *btIter) key() uint64 { return it.t.keyAt(it.n, it.i) }
func (it *btIter) ref() Ptr    { return it.t.refAt(it.n, it.i) }
func (it *btIter) advance() {
	it.i++
	it.norm()
}

// Verify checks structural invariants (key order within nodes, leaf
// chain order, posting-chain block bounds, and count consistency) and
// returns the first violation. It is exported for tests and integrity
// checks.
func (t *BTree) Verify() error {
	seen := 0
	prev := uint64(0)
	first := true
	for n := t.leftmostLeaf(); n != 0; n = t.next(n) {
		c := t.count(n)
		for i := 0; i < c; i++ {
			k := t.keyAt(n, i)
			if !first && k <= prev {
				return fmt.Errorf("mstore: btree keys out of order at %d", k)
			}
			prev, first = k, false
			ref := t.refAt(n, i)
			if ref&btChainTag != 0 {
				for blk := ref &^ btChainTag; blk != 0; blk = t.postNext(blk) {
					pc := t.postCount(blk)
					if pc < 1 || pc > btPostCap {
						return fmt.Errorf("mstore: btree posting block for key %d holds %d values", k, pc)
					}
				}
			}
			seen += t.chainLen(ref)
		}
	}
	if seen != t.Len() {
		return fmt.Errorf("mstore: btree count %d but %d values reachable", t.Len(), seen)
	}
	return nil
}

func (t *BTree) leftmostLeaf() Ptr {
	n := t.root()
	for !t.isLeaf(n) {
		n = t.refAt(n, 0)
	}
	return n
}
