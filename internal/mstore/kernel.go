package mstore

import "encoding/binary"

// The kernel layer holds the cache-conscious inner loops of the joins.
// The morsel pool (internal/exec) decides *where* work runs; these
// kernels decide *how* one morsel's objects move through the cache
// hierarchy:
//
//   - joinKernel/joinBatch restructure the one-object-at-a-time pointer
//     dereference into fixed-width batches: a gather stage issues all of
//     a batch's S-side reads back-to-back (independent loads, so the
//     cache misses overlap in the memory pipeline) before the join stage
//     folds the pairs. Go has no prefetch intrinsics; the stride-ahead
//     read loop is the software equivalent.
//   - orderProbe (join.go) replaces the per-bucket probe table: it
//     orders an extent in place, by S offset, only as far as windows of
//     2^windowBits bytes of S and feeds each window to joinRefs, so the
//     gathers of one stretch hit one cache-sized part of S — with no
//     table, no sort and zero allocations for an extent within a window.
//   - the staging scan is a join's one scatter pass, to at most
//     2^params.Bits destinations a row (DB.plan), so its working set of
//     destination pages stays cache-sized; orderProbe's in-place
//     ordering fans out as far per level.
//
// Every kernel is gated on bit-identical Pairs/Signature against the
// straight-line reference loops kept in kernel_test.go: the signatures
// fold as commutative sums, so batching, ordering, and pass structure
// are free to reorder work.

// gatherWidth is the fixed width of the batched gather. It was a
// request knob until the one multi-core, larger-than-LLC measurement
// (EXPERIMENTS.md "Cache-conscious kernels") showed folding every pair
// at once no better than the 64-wide gather: the gather stays, and its
// one value in use is a constant.
const gatherWidth = 64

// joinKernel is one join's view of the mapped store for the batched
// kernels: a full-segment byte view per S partition (the base relations
// never grow during a join, so the views are stable). One joinKernel is
// shared read-only by all of a join's morsels.
type joinKernel struct {
	sv [][]byte // segment views indexed by S partition
}

func newJoinKernel(db *DB) *joinKernel {
	sv := make([][]byte, len(db.S))
	for j, rel := range db.S {
		sv[j] = rel.seg.data
	}
	return &joinKernel{sv: sv}
}

// sWord reads the identity word of the S object at ptr through the
// cached segment view (one bounds check, no per-call header reads).
func (k *joinKernel) sWord(p SPtr) uint64 {
	return binary.LittleEndian.Uint64(k.sv[p.Part][p.Off:])
}

// joinBatch folds R→S pairs in fixed-width batches. addPair records
// one reference; flush runs the two stages: the gather loop issues every
// S-side read of the batch (independent loads — the misses overlap),
// then the fold loop hashes against the already-loaded words. Callers
// create one joinBatch per morsel (stack-sized) and must flush the tail
// before folding the morsel's accumulator.
type joinBatch struct {
	k   *joinKernel
	n   int
	rid [gatherWidth]uint64
	ptr [gatherWidth]SPtr
}

func (k *joinKernel) newBatch() joinBatch { return joinBatch{k: k} }

// addPair queues one decoded (rid, S-pointer) pair.
func (b *joinBatch) addPair(rid uint64, p SPtr, st *JoinStats) {
	b.ptr[b.n] = p
	b.rid[b.n] = rid
	b.n++
	if b.n == gatherWidth {
		b.flush(st)
	}
}

// flush drains the queued pairs into st.
func (b *joinBatch) flush(st *JoinStats) {
	n := b.n
	if n == 0 {
		return
	}
	var sw [gatherWidth]uint64
	for i := 0; i < n; i++ { // gather: S-side reads back-to-back
		sw[i] = b.k.sWord(b.ptr[i])
	}
	for i := 0; i < n; i++ { // fold: hash against loaded words
		st.Signature += pairHash(b.rid[i], sw[i])
	}
	st.Pairs += int64(n)
	b.n = 0
}

// joinRefs batch-joins staged references into S partition part, in
// slice order.
func (k *joinKernel) joinRefs(part int, refs []ref, st *JoinStats) {
	b := k.newBatch()
	for _, e := range refs {
		b.addPair(e.rid, SPtr{Part: uint32(part), Off: e.off}, st)
	}
	b.flush(st)
}
