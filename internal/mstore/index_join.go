package mstore

import (
	"fmt"

	"mmjoin/internal/exec"
)

// The index join operators. Both run over the persistent per-partition
// B-trees (index.go) instead of materializing transient probe state, so
// neither touches temporary storage at all:
//
//   - indexNL: nested loops with the probe side replaced by a real
//     B-tree descent per R object — the classic index-nested-loop,
//     which wins when |R| ≪ |S| (probe cost is R-proportional while
//     every other algorithm pays to scan, stage, or index S).
//   - indexMerge: MPSM-style sorted-range merge. The index key order
//     (partition<<32 | row) makes both trees' leaf chains sorted run
//     files; each morsel zips one S key range of one R-tree/S-tree pair
//     through the leaf-chain cursors, partition-local with no global
//     merge barrier — the sort the sort-merge join pays for at run time
//     was paid once at bulk-load.
//
// Both fold pairs through the same batched joinKernel as every other
// operator, so Pairs/Signature are bit-identical to the reference
// kernels at any worker count. They share the skeleton's prologue and
// epilogue (joinRun) and nothing else: index-merge never scans R, and
// index-nl resolves every S location through a tree, so neither is a
// staging configuration. Neither builds a table, so — like nested loops
// and sort-merge, which run the same stack batches — neither reserves
// anything from the grant.

// indexNL scans R in morsels; each object's join attribute is turned
// into its canonical index key (pure offset arithmetic, no S access,
// under the pointer rule every join applies) and probed through S's
// per-partition B-tree — a real root-to-leaf descent per object, the
// cost the analytical model's index-probe term prices.
func (r *joinRun) indexNL() []exec.Task {
	db := r.db
	var tasks []exec.Task
	for i, ri := range db.R {
		tasks = rangeTasks(tasks, ri.Count(), morselObjs, func(w, lo, hi int) error {
			st := &r.stats[w].JoinStats
			b := r.kern.newBatch()
			for x := lo; x < hi; x++ {
				obj := ri.Object(x)
				ptr := DecodeSPtr(obj)
				key, err := db.indexKeyOf(ptr)
				if err != nil {
					return fmt.Errorf("mstore: R%d[%d] %w", i, x, err)
				}
				off, ok := db.sidx[ptr.Part].Get(key)
				if !ok {
					return fmt.Errorf("mstore: R%d[%d] key %d missing from S%d index", i, x, key, ptr.Part)
				}
				b.addPair(ridFromObj(obj), SPtr{Part: ptr.Part, Off: off}, st)
			}
			b.flush(st)
			return nil
		})
	}
	return tasks
}

// indexMerge zips the two sides' leaf chains partition-locally: one
// morsel covers one (R partition, S key subrange) cell, advancing a
// cursor over each tree and expanding the R side's posting chains
// against the matching S row. Because the subranges partition the key
// space exactly, every morsel's output is disjoint and the fold is the
// usual commutative sum — no global merge phase, no barrier between
// cells (MPSM's shape on persistent indexes).
func (r *joinRun) indexMerge() []exec.Task {
	db := r.db
	var tasks []exec.Task
	for i := range db.ridx {
		for j := range db.sidx {
			tasks = rangeTasks(tasks, db.S[j].Count(), morselObjs, func(w, lo, hi int) error {
				return r.kern.mergeCell(db, i, j, lo, hi, &r.stats[w].JoinStats)
			})
		}
	}
	return tasks
}

// mergeCell is one index-merge morsel: the references of R partition i
// into S partition j's rows [lo, hi), folded into acc.
func (k *joinKernel) mergeCell(db *DB, i, j, lo, hi int, acc *JoinStats) error {
	rt, st, rRel := db.ridx[i], db.sidx[j], db.R[i]
	b := k.newBatch()
	base := uint64(j) << 32
	kLo, kHi := base|uint64(lo), base|uint64(hi-1)
	sit := st.iter(kLo, kHi)
	for rit := rt.iter(kLo, kHi); rit.valid(); rit.advance() {
		key := rit.key()
		for sit.valid() && sit.key() < key {
			sit.advance()
		}
		if !sit.valid() || sit.key() != key {
			return fmt.Errorf("mstore: R%d key %d missing from S%d index range", i, key, j)
		}
		sp := SPtr{Part: uint32(j), Off: st.firstValue(sit.ref())}
		rt.forEachValue(rit.ref(), func(v Ptr) bool {
			b.addPair(ridAt(rRel, v), sp, acc)
			return true
		})
	}
	b.flush(acc)
	return nil
}
