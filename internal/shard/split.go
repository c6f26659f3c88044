package shard

import (
	"fmt"
	"os"
	"path/filepath"

	"mmjoin/internal/mstore"
	"mmjoin/internal/relation"
)

// Split rewrites one mapped database into len(outDirs) shard databases
// whose union is the same logical relation:
//
//   - S is replicated: every shard gets a byte-identical copy of every
//     S partition, so each R object's stored pointer resolves locally
//     (the replicated-build-side layout — a scatter-gather join needs
//     no cross-shard shuffle).
//   - R is partitioned: within each source partition, objects go to
//     shards round-robin, preserving the per-partition key distribution
//     on every shard and balancing |R| to within one object.
//
// Pointers are re-encoded through (partition, index) rather than copied
// as raw offsets, so the split is correct even if replica segment
// layout ever diverges from the source's. The source's Workload
// resolves them under the pointer rule every join applies, so a stored
// pointer that names no S object fails the split, naming its R object,
// before any shard is written. The merged scatter-gather
// join over the shards is bit-identical (Pairs and Signature) to the
// single-store join over the source, which is the invariant the Shard
// conformance tests pin.
//
// Split returns a ready shard map (ids "shard-0"… in outDirs order)
// that WriteMap can persist for `mmdb serve -shard-map`.
func Split(srcDir string, srcD int, outDirs []string) (*Map, error) {
	if len(outDirs) < 1 {
		return nil, fmt.Errorf("shard: split needs at least one output dir")
	}
	src, err := mstore.OpenDB(srcDir, srcD)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	w, err := src.Workload()
	if err != nil {
		return nil, err
	}

	n := len(outDirs)
	m := &Map{Schema: MapSchema}
	for k, out := range outDirs {
		if err := splitOne(src, w.Refs, out, k, n); err != nil {
			return nil, fmt.Errorf("shard %d (%s): %w", k, out, err)
		}
		m.Shards = append(m.Shards, Entry{ID: fmt.Sprintf("shard-%d", k), Dir: out, D: srcD})
	}
	return m, nil
}

// splitOne materializes shard k of n under out; refs[i][x] names the S
// object R_i[x] points to.
func splitOne(src *mstore.DB, refs [][]relation.SPtr, out string, k, n int) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	objSize := src.ObjSize
	var open []*mstore.Relation
	closeAll := func() {
		for _, rel := range open {
			rel.Segment().Close()
		}
	}
	create := func(path string, count int) (*mstore.Relation, error) {
		cap := count
		if cap < 1 {
			cap = 1
		}
		seg, err := mstore.Create(path, int64(objSize)*int64(cap)+4096)
		if err != nil {
			return nil, err
		}
		rel, err := mstore.CreateRelation(seg, objSize, cap)
		if err != nil {
			seg.Close()
			return nil, err
		}
		open = append(open, rel)
		return rel, nil
	}

	// S replicas first, so R pointers can be re-encoded against them.
	newS := make([]*mstore.Relation, src.D)
	for j := 0; j < src.D; j++ {
		rel, err := create(filepath.Join(out, fmt.Sprintf("S%d.seg", j)), src.S[j].Count())
		if err != nil {
			closeAll()
			return err
		}
		for x := 0; x < src.S[j].Count(); x++ {
			if _, err := rel.Append(src.S[j].Object(x)); err != nil {
				closeAll()
				return err
			}
		}
		newS[j] = rel
	}

	obj := make([]byte, objSize)
	for i := 0; i < src.D; i++ {
		srcR := src.R[i]
		count := 0
		for x := 0; x < srcR.Count(); x++ {
			if x%n == k {
				count++
			}
		}
		rel, err := create(filepath.Join(out, fmt.Sprintf("R%d.seg", i)), count)
		if err != nil {
			closeAll()
			return err
		}
		for x := 0; x < srcR.Count(); x++ {
			if x%n != k {
				continue
			}
			copy(obj, srcR.Object(x))
			ref := refs[i][x]
			mstore.EncodeSPtr(obj, mstore.SPtr{Part: uint32(ref.Part), Off: newS[ref.Part].PtrAt(int(ref.Index))})
			if _, err := rel.Append(obj); err != nil {
				closeAll()
				return err
			}
		}
	}
	closeAll()
	return nil
}
