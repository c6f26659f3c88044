package mstore

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"mmjoin/internal/exec"
)

// Persistent per-partition B-tree indexes over both relations, keyed by
// the canonical (partition, index) name of the S object a row joins to:
//
//	key(S[j][x])      = j<<32 | x        (unique: one S row per key)
//	key(R[i] row obj) = key of the S row obj points to (duplicate-heavy:
//	                    many R rows share a target, Zipf-skewed under -skew)
//
// The key is computable from an R row's stored pointer alone (DB.sObject
// is offset arithmetic), so index builds and index-merge scans never
// fault S's object pages. Each tree lives inside its relation's own
// segment with its head in the segment AuxRoot — reopening the store
// finds the indexes by exact positioning, no pointer fixup, the same
// claim the relations themselves test.

// indexNodeBytes is the node size of relation indexes: one page, the
// layout the analytical model's index-probe term assumes.
const indexNodeBytes = 4096

// indexKeyOf names the S object ptr references: partition in the high
// word, row index in the low word — ascending key order is exactly
// (partition, row) order, which makes per-partition key ranges
// contiguous for the merge join. It applies the one pointer rule
// (DB.sObject): a pointer that names no S object fails, wrapping
// errBadPointer, as it fails every other reader.
func (db *DB) indexKeyOf(ptr SPtr) (uint64, error) {
	x, err := db.sObject(ptr)
	return uint64(ptr.Part)<<32 | uint64(x), err
}

// HasIndexes reports whether every partition of both relations has an
// attached B-tree index (all or nothing — the operators need both
// sides).
func (db *DB) HasIndexes() bool { return len(db.ridx) == db.D && len(db.sidx) == db.D }

// BuildIndexes bulk-loads a B-tree per partition of both relations on
// the pool (nil ⇒ ephemeral) and persists each head in its segment's
// AuxRoot. It is a no-op if indexes are already attached; a segment
// whose AuxRoot is occupied by something else (e.g. an application
// R-tree) is an error — the store's aux slot is taken. Every aux root is
// checked and every R key resolved before the first tree is allocated,
// so a taken slot or a dangling pointer fails the build with every
// segment as it was.
func (db *DB) BuildIndexes(ctx context.Context, p *exec.Pool) error {
	if db.HasIndexes() {
		return nil
	}
	if p == nil {
		p = exec.NewPool(0)
		defer p.Close()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// One tree per relation partition: S0 … S(D−1), then R0 … R(D−1).
	rels := append(slices.Clone(db.S), db.R...)
	name := func(n int) string {
		if n < db.D {
			return fmt.Sprintf("S%d", n)
		}
		return fmt.Sprintf("R%d", n-db.D)
	}
	trees := make([]*BTree, len(rels))
	for n, rel := range rels {
		var err error
		if trees[n], err = heldTree(rel); err != nil {
			return fmt.Errorf("mstore: index %s: %w", name(n), err)
		}
	}
	items := make([][]KV, len(rels))
	for n, rel := range rels {
		if trees[n] != nil {
			continue
		}
		items[n] = make([]KV, rel.Count())
		if err := p.Run(ctx, rangeTasks(nil, rel.Count(), morselObjs, func(_, lo, hi int) error {
			for x := lo; x < hi; x++ {
				k := uint64(n)<<32 | uint64(x) // an S row's own name
				if n >= db.D {
					var err error
					if k, err = db.indexKeyOf(DecodeSPtr(rel.Object(x))); err != nil {
						return fmt.Errorf("mstore: %s[%d] %w", name(n), x, err)
					}
				}
				items[n][x] = KV{Key: k, Val: rel.PtrAt(x)}
			}
			return nil
		})); err != nil {
			return err
		}
	}
	for n, rel := range rels {
		if trees[n] != nil {
			continue
		}
		t, err := BulkLoadBTree(ctx, p, rel.Segment(), indexNodeBytes, items[n])
		if err != nil {
			return fmt.Errorf("mstore: index %s: %w", name(n), err)
		}
		rel.Segment().SetAuxRoot(t.Head())
		trees[n] = t
	}
	db.sidx, db.ridx = trees[:db.D:db.D], trees[db.D:]
	return nil
}

// heldTree is the one test of a relation's aux root, before a build and
// at open: 0 is free (nil, nil); a complete tree of the relation — one
// entry per row, which a retried build keeps after a partly persisted
// one — is returned; any other value means the slot is taken.
func heldTree(rel *Relation) (*BTree, error) {
	aux := rel.Segment().AuxRoot()
	if aux == 0 {
		return nil, nil
	}
	if t, err := OpenBTree(rel.Segment(), aux); err == nil && t.Len() == rel.Count() {
		return t, nil
	}
	return nil, fmt.Errorf("aux root %d already occupied", aux)
}

// attachIndexes opens the persisted per-partition trees if every
// segment of both relations carries one that is consistent with its
// relation (right magic, one entry per row). Anything less attaches
// nothing: a partially indexed or stale store simply runs unindexed,
// and an aux root holding a different structure (the gis example keeps
// an R-tree there) is skipped the same way.
func (db *DB) attachIndexes() {
	trees := make([]*BTree, 0, 2*db.D)
	for _, rel := range append(slices.Clone(db.S), db.R...) {
		t, _ := heldTree(rel)
		if t == nil {
			return
		}
		trees = append(trees, t)
	}
	db.sidx, db.ridx = trees[:db.D:db.D], trees[db.D:]
}

// VerifyIndexes cross-checks the attached trees against the relations:
// every S row is findable under its canonical key, and every R row's
// key posting list contains the row. (Quadratic-free: one probe per
// row.)
func (db *DB) VerifyIndexes() error {
	if !db.HasIndexes() {
		return fmt.Errorf("mstore: no indexes attached")
	}
	for j, rel := range db.S {
		base := uint64(j) << 32
		for x := 0; x < rel.Count(); x++ {
			if v, ok := db.sidx[j].Get(base | uint64(x)); !ok || v != rel.PtrAt(x) {
				return fmt.Errorf("mstore: S%d[%d] index lookup = %d,%v want %d", j, x, v, ok, rel.PtrAt(x))
			}
		}
	}
	for i, rel := range db.R {
		for x := 0; x < rel.Count(); x++ {
			k, err := db.indexKeyOf(DecodeSPtr(rel.Object(x)))
			if err != nil {
				return fmt.Errorf("mstore: R%d[%d] %w", i, x, err)
			}
			found := false
			db.ridx[i].Postings(k, func(v Ptr) bool {
				found = v == rel.PtrAt(x)
				return !found
			})
			if !found {
				return fmt.Errorf("mstore: R%d[%d] missing from posting list of key %d", i, x, k)
			}
		}
	}
	return nil
}

// ridAt reads the R id stored at an R-relation offset (the value an
// R-index posting names); ridFromObj reads it from an R-layout record.
func ridAt(rel *Relation, off Ptr) uint64 {
	return binary.LittleEndian.Uint64(rel.At(off)[ridOffset:])
}

func ridFromObj(obj []byte) uint64 { return binary.LittleEndian.Uint64(obj[ridOffset:]) }
