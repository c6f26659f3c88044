package mstore

import (
	"context"
	"encoding/binary"
	"fmt"

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
// R-tree) is an error — the store's aux slot is taken. Every R key is
// resolved before the first tree is allocated, so a dangling pointer
// fails the build with every segment as it was.
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
	rItems := make([][]KV, db.D)
	for i, rel := range db.R {
		items := make([]KV, rel.Count())
		if err := p.Run(ctx, rangeTasks(nil, len(items), morselObjs, func(_, lo, hi int) error {
			for x := lo; x < hi; x++ {
				k, err := db.indexKeyOf(DecodeSPtr(rel.Object(x)))
				if err != nil {
					return fmt.Errorf("mstore: R%d[%d] %w", i, x, err)
				}
				items[x] = KV{Key: k, Val: rel.PtrAt(x)}
			}
			return nil
		})); err != nil {
			return err
		}
		rItems[i] = items
	}
	ridx := make([]*BTree, db.D)
	sidx := make([]*BTree, db.D)
	for j, rel := range db.S {
		items := make([]KV, rel.Count())
		base := uint64(j) << 32
		if err := p.Run(ctx, rangeTasks(nil, len(items), morselObjs, func(_, lo, hi int) error {
			for x := lo; x < hi; x++ {
				items[x] = KV{Key: base | uint64(x), Val: rel.PtrAt(x)}
			}
			return nil
		})); err != nil {
			return err
		}
		t, err := db.buildOne(ctx, p, rel, items)
		if err != nil {
			return fmt.Errorf("mstore: index S%d: %w", j, err)
		}
		sidx[j] = t
	}
	for i, rel := range db.R {
		t, err := db.buildOne(ctx, p, rel, rItems[i])
		if err != nil {
			return fmt.Errorf("mstore: index R%d: %w", i, err)
		}
		ridx[i] = t
	}
	db.ridx, db.sidx = ridx, sidx
	return nil
}

func (db *DB) buildOne(ctx context.Context, p *exec.Pool, rel *Relation, items []KV) (*BTree, error) {
	seg := rel.Segment()
	if aux := seg.AuxRoot(); aux != 0 {
		if t, err := OpenBTree(seg, aux); err == nil && t.Len() == rel.Count() {
			return t, nil // a retry after a partly persisted build: this tree is done
		}
		return nil, fmt.Errorf("aux root %d already occupied", aux)
	}
	t, err := BulkLoadBTree(ctx, p, seg, indexNodeBytes, items)
	if err != nil {
		return nil, err
	}
	seg.SetAuxRoot(t.Head())
	return t, nil
}

// attachIndexes opens the persisted per-partition trees if every
// segment of both relations carries one that is consistent with its
// relation (right magic, one entry per row). Anything less attaches
// nothing: a partially indexed or stale store simply runs unindexed,
// and an aux root holding a different structure (the gis example keeps
// an R-tree there) is skipped the same way.
func (db *DB) attachIndexes() {
	open := func(rel *Relation) *BTree {
		aux := rel.Segment().AuxRoot()
		if aux == 0 {
			return nil
		}
		t, err := OpenBTree(rel.Segment(), aux)
		if err != nil || t.Len() != rel.Count() {
			return nil
		}
		return t
	}
	ridx := make([]*BTree, 0, db.D)
	sidx := make([]*BTree, 0, db.D)
	for _, rel := range db.S {
		t := open(rel)
		if t == nil {
			return
		}
		sidx = append(sidx, t)
	}
	for _, rel := range db.R {
		t := open(rel)
		if t == nil {
			return
		}
		ridx = append(ridx, t)
	}
	db.ridx, db.sidx = ridx, sidx
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
