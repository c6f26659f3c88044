package mstore

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
)

// DB is a partitioned pair of relations R and S stored in one
// memory-mapped segment per partition, the real-store counterpart of the
// simulator's workload: every R object's first bytes hold a virtual
// pointer to an S object, followed by a unique R id used to verify join
// results.
type DB struct {
	Dir     string
	D       int
	ObjSize int
	R, S    []*Relation

	// Per-partition B-tree indexes (index.go); attached all-or-nothing
	// by OpenDB/BuildIndexes, nil on an unindexed store.
	ridx, sidx []*BTree

	// The reference histogram (hist.go), or the bad pointer that stopped
	// it, set by the handle's first join or Explain of a plan that stages;
	// histPasses counts the counts begun. All three are guarded by histMu.
	histMu     sync.Mutex
	hist       *refHist
	histErr    error
	histPasses int

	// The unit-cost profile Explain prices plans with (explain.go), set by
	// the handle's first Explain; profPasses counts the measurements
	// begun. All three are guarded by profMu.
	profMu     sync.Mutex
	prof       *profile
	profPasses int

	// The temp arenas the handle's finished staging joins left mapped for
	// the next ones (arena.go); Close unmaps them.
	arenas arenaSet
}

// ridOffset is where the 8-byte R id lives inside an R object, right
// after the join attribute.
const ridOffset = sptrBytes

// MinObjSize is the smallest valid object size (pointer + id).
const MinObjSize = ridOffset + 8

// CreateDB builds a database under dir with nr R objects and ns S
// objects of objSize bytes, partitioned over d segments each, with
// uniformly random join attributes (seeded).
func CreateDB(dir string, d, nr, ns, objSize int, seed int64) (*DB, error) {
	if objSize < MinObjSize {
		return nil, fmt.Errorf("mstore: object size %d below minimum %d", objSize, MinObjSize)
	}
	if d < 1 || nr < d || ns < d {
		return nil, fmt.Errorf("mstore: bad shape d=%d nr=%d ns=%d", d, nr, ns)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db := &DB{Dir: dir, D: d, ObjSize: objSize}
	rng := rand.New(rand.NewSource(seed))

	sizeS := func(j int) int { return ns/d + boolInt(j < ns%d) }
	sizeR := func(i int) int { return nr/d + boolInt(i < nr%d) }

	// S first, so R's pointers can reference real offsets.
	for j := 0; j < d; j++ {
		seg, err := Create(db.sPath(j), int64(objSize)*int64(sizeS(j))+4096)
		if err != nil {
			db.Close()
			return nil, err
		}
		rel, err := CreateRelation(seg, objSize, sizeS(j))
		if err != nil {
			db.Close()
			return nil, err
		}
		obj := make([]byte, objSize)
		for x := 0; x < sizeS(j); x++ {
			binary.LittleEndian.PutUint64(obj, uint64(j)<<32|uint64(x))
			if _, err := rel.Append(obj); err != nil {
				db.Close()
				return nil, err
			}
		}
		db.S = append(db.S, rel)
	}
	rid := uint64(0)
	for i := 0; i < d; i++ {
		seg, err := Create(db.rPath(i), int64(objSize)*int64(sizeR(i))+4096)
		if err != nil {
			db.Close()
			return nil, err
		}
		rel, err := CreateRelation(seg, objSize, sizeR(i))
		if err != nil {
			db.Close()
			return nil, err
		}
		obj := make([]byte, objSize)
		for x := 0; x < sizeR(i); x++ {
			j := rng.Intn(d)
			idx := rng.Intn(db.S[j].Count())
			EncodeSPtr(obj, SPtr{Part: uint32(j), Off: db.S[j].PtrAt(idx)})
			binary.LittleEndian.PutUint64(obj[ridOffset:], rid)
			rid++
			if _, err := rel.Append(obj); err != nil {
				db.Close()
				return nil, err
			}
		}
		db.R = append(db.R, rel)
	}
	return db, nil
}

// OpenDB maps an existing database of d partitions (no pointer fixup:
// exact positioning). A store with more partitions than d is refused:
// half a store would answer lookups from the part it mapped and fail
// every staging join on its dangling pointers.
func OpenDB(dir string, d int) (*DB, error) {
	db := &DB{Dir: dir, D: d}
	for _, path := range []string{db.rPath(d), db.sPath(d)} {
		if _, err := os.Stat(path); err == nil {
			return nil, fmt.Errorf("mstore: %s holds more than %d partitions (%s exists)", dir, d, filepath.Base(path))
		}
	}
	for j := 0; j < d; j++ {
		seg, err := Open(db.sPath(j))
		if err != nil {
			db.Close()
			return nil, err
		}
		rel, err := OpenRelation(seg)
		if err != nil {
			db.Close()
			return nil, err
		}
		db.S = append(db.S, rel)
	}
	for i := 0; i < d; i++ {
		seg, err := Open(db.rPath(i))
		if err != nil {
			db.Close()
			return nil, err
		}
		rel, err := OpenRelation(seg)
		if err != nil {
			db.Close()
			return nil, err
		}
		db.R = append(db.R, rel)
		db.ObjSize = rel.ObjSize()
	}
	db.attachIndexes()
	return db, nil
}

func (db *DB) rPath(i int) string { return filepath.Join(db.Dir, fmt.Sprintf("R%d.seg", i)) }
func (db *DB) sPath(j int) string { return filepath.Join(db.Dir, fmt.Sprintf("S%d.seg", j)) }

// Close unmaps all segments and every idle temp arena; an arena a join
// still holds is unmapped when that join returns it.
func (db *DB) Close() error {
	first := db.arenas.close()
	for _, rel := range append(append([]*Relation(nil), db.R...), db.S...) {
		if rel == nil {
			continue
		}
		if err := rel.Segment().Close(); err != nil && first == nil {
			first = err
		}
	}
	db.R, db.S = nil, nil
	db.ridx, db.sidx = nil, nil
	return first
}

// JoinStats summarizes a join execution over the real store.
type JoinStats struct {
	Pairs     int64
	Signature uint64
}

// Fold merges b into a. Both fields fold as commutative, associative
// sums, which is what makes every merge order equivalent: per-worker
// partial results within one join, and per-shard results across a
// scatter-gather fan-out, combine to bit-identical totals.
func (a *JoinStats) Fold(b JoinStats) {
	a.Pairs += b.Pairs
	a.Signature += b.Signature
}

// pairHash signs one joined pair by the R object's id and the S object's
// identity word, independent of processing order. It is FNV-1a over the
// two words' little-endian bytes, unrolled so the per-pair hot path does
// not allocate a hasher (bit-identical to hash/fnv's New64a).
func pairHash(rid uint64, sWord uint64) uint64 {
	const offset64, prime64 = uint64(14695981039346656037), uint64(1099511628211)
	h := offset64
	for s := 0; s < 64; s += 8 {
		h = (h ^ (rid >> s & 0xff)) * prime64
	}
	for s := 0; s < 64; s += 8 {
		h = (h ^ (sWord >> s & 0xff)) * prime64
	}
	return h
}

// ExpectedStats computes the canonical join result directly from the
// stored pointers (the ground truth all algorithms must reproduce). It
// resolves each pointer by the one pointer rule (DB.sObject): a pointer
// that names no S object adds no pair, so a join that counts it differs
// from this answer instead of crashing it.
func (db *DB) ExpectedStats() JoinStats {
	var st JoinStats
	for _, rel := range db.R {
		for x := 0; x < rel.Count(); x++ {
			obj := rel.Object(x)
			ptr := DecodeSPtr(obj)
			if _, err := db.sObject(ptr); err != nil {
				continue
			}
			st.Pairs++
			st.Signature += pairHash(binary.LittleEndian.Uint64(obj[ridOffset:]),
				binary.LittleEndian.Uint64(db.S[ptr.Part].At(ptr.Off)))
		}
	}
	return st
}

// LookupResult is one dereferenced R→S pointer: the R object's id, the
// S object it references (by partition and index), and that S object's
// identity word. Shard names the shard that answered when the store is
// a router ("" for a single database).
type LookupResult struct {
	RID    uint64
	SPart  uint32
	SIndex int
	SWord  uint64
	Shard  string
}

// Lookup dereferences R[part][index]'s stored pointer through the
// mapping — the single-object counterpart of the bulk joins. Bounds
// failures wrap ErrPartRange / ErrIndexRange; a stored pointer that no
// S object holds fails as it fails a join, wrapping errBadPointer.
func (db *DB) Lookup(part, index int) (LookupResult, error) {
	if part < 0 || part >= len(db.R) {
		return LookupResult{}, fmt.Errorf("%w: R%d, store has [0,%d)", ErrPartRange, part, len(db.R))
	}
	rel := db.R[part]
	if index < 0 || index >= rel.Count() {
		return LookupResult{}, fmt.Errorf("%w: R%d[%d], partition has %d objects", ErrIndexRange, part, index, rel.Count())
	}
	obj := rel.seg.Bytes(rel.PtrAt(index), rel.size) // index checked above
	ptr := DecodeSPtr(obj)
	si, err := db.sObject(ptr)
	if err != nil {
		return LookupResult{}, fmt.Errorf("mstore: R%d[%d] %w", part, index, err)
	}
	s := db.S[ptr.Part]
	return LookupResult{
		RID:    binary.LittleEndian.Uint64(obj[ridOffset:]),
		SPart:  ptr.Part,
		SIndex: si,
		SWord:  s.seg.U64(s.PtrAt(si)),
	}, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Verify checks the database's structural integrity: every segment has a
// valid root relation, every R join attribute names an existing S object
// at a properly aligned offset, and identity words are unique. It
// returns the first problem found.
func (db *DB) Verify() error {
	if len(db.R) != db.D || len(db.S) != db.D {
		return fmt.Errorf("mstore: %d/%d relations for D=%d", len(db.R), len(db.S), db.D)
	}
	for j, rel := range db.S {
		if rel.Count() > rel.Capacity() {
			return fmt.Errorf("mstore: S%d count %d exceeds capacity %d", j, rel.Count(), rel.Capacity())
		}
	}
	seen := make(map[uint64]struct{})
	for i, rel := range db.R {
		for x := 0; x < rel.Count(); x++ {
			obj := rel.Object(x)
			if _, err := db.sObject(DecodeSPtr(obj)); err != nil {
				return fmt.Errorf("mstore: R%d[%d] %w", i, x, err)
			}
			rid := binary.LittleEndian.Uint64(obj[ridOffset:])
			if _, dup := seen[rid]; dup {
				return fmt.Errorf("mstore: duplicate R id %d", rid)
			}
			seen[rid] = struct{}{}
		}
	}
	return nil
}
