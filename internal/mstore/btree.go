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
// (descent and split logic never see duplicates), and a key with more
// than one value stores a btChainTag-tagged pointer to a chain of
// fixed-capacity posting blocks instead of a direct value. Values must
// therefore leave the tag bit clear, which every segment offset does.
// There is no delete: like the segment it lives in, a tree only grows.
type BTree struct {
	seg       *Segment
	hdr       Ptr
	nodeBytes int
	maxKeys   int
}

// Tree header layout: magic u32, nodeBytes u32, root Ptr, count u64,
// first-leaf Ptr.
const (
	btMagic     = 0x42545231 // "BTR1"
	btHdrBytes  = 40
	btOffMagic  = 0
	btOffNode   = 4
	btOffRoot   = 8
	btOffCount  = 16
	btOffFirst  = 24
	minNodeSize = 64
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

// btMaxKeys sizes the key array so a node can briefly hold maxKeys+1
// keys and maxKeys+2 refs while an overflow is being split:
// nodeHdr + 8·(maxKeys+1) + 8·(maxKeys+2) ≤ nodeBytes.
func btMaxKeys(nodeBytes int) int {
	return (nodeBytes - nodeHdrBytes - 24) / 16
}

// CreateBTree allocates an empty tree with the given node size (0 ⇒ one
// 4K page) and returns it. Persist the returned Head pointer (for
// example via Segment.SetRoot) to reopen the tree later.
func CreateBTree(seg *Segment, nodeBytes int) (*BTree, error) {
	if nodeBytes == 0 {
		nodeBytes = 4096
	}
	if nodeBytes < minNodeSize {
		return nil, fmt.Errorf("mstore: btree node %d below minimum %d", nodeBytes, minNodeSize)
	}
	hdr, err := seg.Alloc(btHdrBytes)
	if err != nil {
		return nil, err
	}
	t := &BTree{seg: seg, hdr: hdr, nodeBytes: nodeBytes}
	t.maxKeys = btMaxKeys(nodeBytes)
	if t.maxKeys < 3 {
		return nil, fmt.Errorf("mstore: btree node %d too small for 3 keys", nodeBytes)
	}
	seg.PutU32(hdr+btOffMagic, btMagic)
	seg.PutU32(hdr+btOffNode, uint32(nodeBytes))
	root, err := t.newNode(true)
	if err != nil {
		return nil, err
	}
	seg.PutU64(hdr+btOffRoot, uint64(root))
	seg.PutU64(hdr+btOffCount, 0)
	seg.PutU64(hdr+btOffFirst, uint64(root))
	return t, nil
}

// OpenBTree attaches to a tree previously created at hdr.
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

func (t *BTree) root() Ptr       { return Ptr(t.seg.U64(t.hdr + btOffRoot)) }
func (t *BTree) setRoot(p Ptr)   { t.seg.PutU64(t.hdr+btOffRoot, uint64(p)) }
func (t *BTree) bumpCount(d int) { t.seg.PutU64(t.hdr+btOffCount, uint64(t.Len()+d)) }

// Node accessors.

func (t *BTree) newNode(leaf bool) (Ptr, error) {
	n, err := t.seg.Alloc(int64(t.nodeBytes))
	if err != nil {
		return 0, err
	}
	flags := uint32(0)
	if leaf {
		flags = 1
	}
	t.seg.PutU32(n, flags)
	t.seg.PutU32(n+4, 0)
	t.seg.PutU64(n+8, 0)
	return n, nil
}

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

// newPostBlock allocates a posting block holding vals with the given
// successor.
func (t *BTree) newPostBlock(next Ptr, vals ...Ptr) (Ptr, error) {
	blk, err := t.seg.Alloc(btPostBytes)
	if err != nil {
		return 0, err
	}
	t.seg.PutU64(blk, uint64(next))
	t.seg.PutU32(blk+8, uint32(len(vals)))
	t.seg.PutU32(blk+12, 0)
	for i, v := range vals {
		t.seg.PutU64(blk+16+Ptr(8*i), uint64(v))
	}
	return blk, nil
}

// appendChain adds v to the values of leaf entry i (a duplicate insert):
// a direct value becomes a two-value chain, a chain grows in its head
// block or gains a new head. The order is deterministic for a given
// insertion sequence but otherwise unspecified — join folds are
// commutative, so consumers never depend on it.
func (t *BTree) appendChain(n Ptr, i int, v Ptr) error {
	ref := t.refAt(n, i)
	if ref&btChainTag == 0 {
		blk, err := t.newPostBlock(0, ref, v)
		if err != nil {
			return err
		}
		t.setRefAt(n, i, blk|btChainTag)
		return nil
	}
	head := ref &^ btChainTag
	if c := t.postCount(head); c < btPostCap {
		t.seg.PutU64(head+16+Ptr(8*c), uint64(v))
		t.seg.PutU32(head+8, uint32(c+1))
		return nil
	}
	blk, err := t.newPostBlock(head, v)
	if err != nil {
		return err
	}
	t.setRefAt(n, i, blk|btChainTag)
	return nil
}

// forEachValue calls fn for every value stored under one leaf ref — the
// direct value, or every posting-chain member — stopping early if fn
// returns false; it reports whether the walk ran to completion.
func (t *BTree) forEachValue(ref Ptr, fn func(v Ptr) bool) bool {
	if ref&btChainTag == 0 {
		return fn(ref)
	}
	for blk := ref &^ btChainTag; blk != 0; blk = t.postNext(blk) {
		for i, c := 0, t.postCount(blk); i < c; i++ {
			if !fn(t.postVal(blk, i)) {
				return false
			}
		}
	}
	return true
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
	n := t.root()
	for !t.isLeaf(n) {
		i := t.search(n, k)
		if i < t.count(n) && t.keyAt(n, i) == k {
			i++ // equal keys route right in internal nodes
		}
		n = t.refAt(n, i)
	}
	i := t.search(n, k)
	if i < t.count(n) && t.keyAt(n, i) == k {
		return t.firstValue(t.refAt(n, i)), true
	}
	return 0, false
}

// Postings calls fn for every value stored under k, stopping early if fn
// returns false; it reports whether k was present.
func (t *BTree) Postings(k uint64, fn func(v Ptr) bool) bool {
	n := t.root()
	for !t.isLeaf(n) {
		i := t.search(n, k)
		if i < t.count(n) && t.keyAt(n, i) == k {
			i++
		}
		n = t.refAt(n, i)
	}
	i := t.search(n, k)
	if i >= t.count(n) || t.keyAt(n, i) != k {
		return false
	}
	t.forEachValue(t.refAt(n, i), fn)
	return true
}

// Insert stores v under k; duplicate keys extend the key's posting
// chain.
func (t *BTree) Insert(k uint64, v Ptr) error {
	if v&btChainTag != 0 {
		return fmt.Errorf("mstore: btree value %d has the chain tag bit set", v)
	}
	root := t.root()
	promoted, newRight, grew, err := t.insert(root, k, v)
	if err != nil {
		return err
	}
	if grew {
		newRoot, err := t.newNode(false)
		if err != nil {
			return err
		}
		t.setCount(newRoot, 1)
		t.setKeyAt(newRoot, 0, promoted)
		t.setRefAt(newRoot, 0, root)
		t.setRefAt(newRoot, 1, newRight)
		t.setRoot(newRoot)
	}
	t.bumpCount(1)
	return nil
}

// insert descends into n; on split it returns the promoted key and new
// right sibling with grew=true.
func (t *BTree) insert(n Ptr, k uint64, v Ptr) (promoted uint64, right Ptr, grew bool, err error) {
	if t.isLeaf(n) {
		i := t.search(n, k)
		if i < t.count(n) && t.keyAt(n, i) == k {
			return 0, 0, false, t.appendChain(n, i, v)
		}
		t.shiftIn(n, i, k, Ptr(v))
		if t.count(n) <= t.maxKeys {
			return 0, 0, false, nil
		}
		return t.splitLeaf(n)
	}
	i := t.search(n, k)
	if i < t.count(n) && t.keyAt(n, i) == k {
		i++ // equal keys route right, like Get
	}
	childPromoted, childRight, childGrew, err := t.insert(t.refAt(n, i), k, v)
	if err != nil {
		return 0, 0, false, err
	}
	if !childGrew {
		return 0, 0, false, nil
	}
	t.shiftInInternal(n, i, childPromoted, childRight)
	if t.count(n) <= t.maxKeys {
		return 0, 0, false, nil
	}
	return t.splitInternal(n)
}

// shiftIn inserts key k and value v at position i of leaf n.
func (t *BTree) shiftIn(n Ptr, i int, k uint64, v Ptr) {
	c := t.count(n)
	for j := c; j > i; j-- {
		t.setKeyAt(n, j, t.keyAt(n, j-1))
		t.setRefAt(n, j, t.refAt(n, j-1))
	}
	t.setKeyAt(n, i, k)
	t.setRefAt(n, i, v)
	t.setCount(n, c+1)
}

// shiftInInternal inserts promoted key at i and the new right child at
// i+1 of internal node n.
func (t *BTree) shiftInInternal(n Ptr, i int, k uint64, right Ptr) {
	c := t.count(n)
	for j := c; j > i; j-- {
		t.setKeyAt(n, j, t.keyAt(n, j-1))
		t.setRefAt(n, j+1, t.refAt(n, j))
	}
	t.setKeyAt(n, i, k)
	t.setRefAt(n, i+1, right)
	t.setCount(n, c+1)
}

func (t *BTree) splitLeaf(n Ptr) (uint64, Ptr, bool, error) {
	right, err := t.newNode(true)
	if err != nil {
		return 0, 0, false, err
	}
	c := t.count(n)
	half := c / 2
	for j := half; j < c; j++ {
		t.setKeyAt(right, j-half, t.keyAt(n, j))
		t.setRefAt(right, j-half, t.refAt(n, j))
	}
	t.setCount(right, c-half)
	t.setCount(n, half)
	t.setNext(right, t.next(n))
	t.setNext(n, right)
	return t.keyAt(right, 0), right, true, nil
}

func (t *BTree) splitInternal(n Ptr) (uint64, Ptr, bool, error) {
	right, err := t.newNode(false)
	if err != nil {
		return 0, 0, false, err
	}
	c := t.count(n)
	mid := c / 2
	promoted := t.keyAt(n, mid)
	for j := mid + 1; j < c; j++ {
		t.setKeyAt(right, j-mid-1, t.keyAt(n, j))
		t.setRefAt(right, j-mid-1, t.refAt(n, j))
	}
	t.setRefAt(right, c-mid-1, t.refAt(n, c))
	t.setCount(right, c-mid-1)
	t.setCount(n, mid)
	return promoted, right, true, nil
}

// Range calls fn for every (key, value) with lo ≤ key ≤ hi in ascending
// key order (a duplicated key yields one call per chained value),
// stopping early if fn returns false.
func (t *BTree) Range(lo, hi uint64, fn func(k uint64, v Ptr) bool) {
	for it := t.iter(lo, hi); it.valid(); it.advance() {
		k := it.key()
		if !t.forEachValue(it.ref(), func(v Ptr) bool { return fn(k, v) }) {
			return
		}
	}
}

// btIter streams the leaf-chain entries of [lo, hi] in ascending key
// order: one entry per distinct key, with ref() exposing the raw leaf
// ref (expand duplicates through forEachValue). It is the cursor the
// index-merge join zips two trees with.
type btIter struct {
	t  *BTree
	n  Ptr
	i  int
	hi uint64
}

// iter positions a cursor at the first key ≥ lo.
func (t *BTree) iter(lo, hi uint64) btIter {
	n := t.root()
	for !t.isLeaf(n) {
		i := t.search(n, lo)
		if i < t.count(n) && t.keyAt(n, i) == lo {
			i++
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
