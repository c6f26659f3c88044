package mstore

import (
	"context"
	"fmt"
	"math"
	"os"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/radix"
	"mmjoin/internal/relation"
)

// JoinRequest selects and parameterizes one join over the mapped store,
// sharing the simulator's vocabulary (join.Request) so sim-join and
// real-join are configured with the same words:
//
//   - Algorithm is a join.Algorithm; the real store executes
//     NestedLoops, SortMerge, Grace, and HybridHash, plus IndexNL and
//     IndexMerge when the store carries persistent indexes
//     (TraditionalGrace exists only as an analytical baseline in the
//     simulator).
//   - MRproc is the per-goroutine private-memory grant in bytes, the
//     real-store analogue of join.Params.MRproc. Grace derives its
//     bucket count K from it with the simulator's rule
//     K = ⌈fuzz·|RSi|·r / MRproc⌉ (fuzz is radix.Fuzz), and hybrid-hash
//     sizes its resident S prefix as the part of an S partition that
//     fits in MRproc — the one memory number a join takes (§7).
//   - K overrides that derivation exactly as in join.Params.
//
// The pointer vocabularies map as follows: the simulator's
// relation.SPtr{Part, Index} addresses S objects by index, the store's
// SPtr{Part, Off} by byte offset into the partition segment; they are
// interchangeable through Relation.IndexOf(Off) and Relation.PtrAt(Index).
type JoinRequest struct {
	Algorithm join.Algorithm

	// MRproc is the private memory grant per partition goroutine, bytes.
	// It shapes the plan — Grace/hybrid-hash K and the hybrid-hash
	// resident prefix — and is not metered while the join runs: every
	// finish orders its extent in place in the temp arena, so no
	// structure grows with a bucket. Zero means unbounded: one bucket,
	// nothing resident.
	MRproc int64

	// K is the Grace/hybrid-hash bucket count; 0 derives it from MRproc.
	K int

	// Telemetry, when non-nil, receives the join's counters (temp files
	// and radix passes). The struct must be zero-valued or the counts
	// accumulate across joins, which is also a supported use.
	Telemetry *JoinTelemetry

	// TmpDir holds the join's temp arena; "" creates a fresh per-call
	// directory under the db dir (removed on return). An explicit TmpDir
	// must be unique per concurrent Run call: every join gives its arena
	// the same name, so the second of two joins sharing a TmpDir fails
	// with a collision error. Run leaves no temporary behind on any exit
	// path.
	TmpDir string

	// Pool is the join's CPU parallelism: the work-stealing pool its
	// morsels run on; nil runs them on a GOMAXPROCS pool made for the
	// call. It is orthogonal to the memory model — MRproc grants memory
	// per data partition (the paper's Rproc), while the pool's size only
	// decides how many goroutines chew through the morsels. A server
	// points every in-flight join, sharded or not, at one pool so total
	// CPU fan-out stays bounded by the host.
	Pool *exec.Pool

	// Ctx, when non-nil, cancels the join between morsels; nil means
	// context.Background().
	Ctx context.Context
}

// withDefaults folds derived defaults into the request, mirroring
// join.Params.withDefaults.
func (req *JoinRequest) withDefaults(db *DB) error {
	switch req.Algorithm {
	case join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash:
	case join.IndexNL, join.IndexMerge:
		if !db.HasIndexes() {
			return fmt.Errorf("mstore: %v needs persistent indexes (build them with mmdb index, or BuildIndexes)", req.Algorithm)
		}
	case join.TraditionalGrace:
		return fmt.Errorf("mstore: %v is an analytical baseline; the store executes pointer-based plans only", req.Algorithm)
	case join.Auto:
		return fmt.Errorf("mstore: auto needs a planning front-end (the service or a shard router), the store executes concrete algorithms only")
	default:
		return fmt.Errorf("mstore: unknown algorithm %v", req.Algorithm)
	}
	if req.MRproc < 0 {
		return fmt.Errorf("mstore: negative memory grant %d", req.MRproc)
	}
	if req.K <= 0 {
		req.K = db.deriveK(req.MRproc)
	} else if max := db.maxK(); req.K > max {
		// Bucket state (D·K counters and extent boundaries) is sized
		// directly by K and is not covered by the MRproc grant, so an
		// explicit K is clamped to the same per-partition reference
		// ceiling deriveK enforces: buckets beyond the number of
		// references a partition can hold never pay for themselves.
		req.K = max
	}
	return nil
}

// deriveK applies the simulator's Grace rule K = ⌈fuzz·|RSi|·r/M⌉ with
// |RSi| = |R|/D (each partition's expected reference load).
func (db *DB) deriveK(mrproc int64) int {
	if mrproc <= 0 {
		return 1
	}
	k := int(math.Ceil(radix.Fuzz * float64(db.CountR()) / float64(db.D) * float64(db.ObjSize) / float64(mrproc)))
	if k < 1 {
		k = 1
	}
	if max := db.maxK(); k > max {
		k = max
	}
	return k
}

// maxK is the largest useful bucket count: one bucket per expected
// reference in a partition (at least 1).
func (db *DB) maxK() int {
	if k := db.CountR() / db.D; k > 1 {
		return k
	}
	return 1
}

// deriveResident sizes the hybrid-hash resident prefix: the share of
// one S partition that fits in the per-goroutine grant.
func (db *DB) deriveResident(mrproc int64) float64 {
	if mrproc <= 0 {
		return 0
	}
	perPart := float64(db.CountS()) / float64(db.D) * float64(db.ObjSize)
	if perPart <= 0 {
		return 0
	}
	frac := float64(mrproc) / perPart
	if frac > 1 {
		frac = 1
	}
	return frac
}

// CountR returns the total number of R objects across partitions.
func (db *DB) CountR() int {
	n := 0
	for _, rel := range db.R {
		n += rel.Count()
	}
	return n
}

// CountS returns the total number of S objects across partitions.
func (db *DB) CountS() int {
	n := 0
	for _, rel := range db.S {
		n += rel.Count()
	}
	return n
}

// Run validates the request, folds in derived defaults, and executes the
// selected algorithm over the mapped store. It is safe for concurrent
// use by multiple goroutines with the default TmpDir (each call gets a
// fresh temp directory; the base relations are only read); concurrent
// calls sharing req.Pool additionally share its CPU bound.
//
// Everything the operators share is set up and torn down here, once:
// the temp directory, the pool and the joinRun that owns the kernel,
// the telemetry, the per-worker accumulators and the temp arena.
func (db *DB) Run(req JoinRequest) (JoinStats, error) {
	if err := req.withDefaults(db); err != nil {
		return JoinStats{}, err
	}
	if req.TmpDir == "" {
		dir, err := os.MkdirTemp(db.Dir, "tmp-")
		if err != nil {
			return JoinStats{}, err
		}
		defer os.RemoveAll(dir)
		req.TmpDir = dir
	} else if err := os.MkdirAll(req.TmpDir, 0o755); err != nil {
		return JoinStats{}, err
	}
	ctx := req.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	p := req.Pool
	if p == nil {
		p = exec.NewPool(0)
		defer p.Close()
	}
	r := newJoinRun(ctx, db, p, req.Telemetry, req.TmpDir)
	defer r.tmp.close()

	var err error
	switch req.Algorithm {
	case join.NestedLoops:
		err = r.staged(db.nestedLoops())
	case join.SortMerge:
		err = r.staged(db.sortMerge(p.Workers()))
	case join.Grace:
		err = r.staged(db.grace(req.K))
	case join.HybridHash:
		err = r.staged(db.hybridHash(req.K, db.deriveResident(req.MRproc)))
	case join.IndexNL:
		err = r.indexNL()
	default: // join.IndexMerge, by withDefaults
		err = r.indexMerge()
	}
	if err != nil {
		return JoinStats{}, err
	}
	return r.stats.total(), nil
}

// Workload converts the stored relations into the simulator's workload
// form: the same partitioning, object sizes, and — crucially — the
// actual stored references, translated from byte offsets to indexes
// (relation.SPtr.Index = Relation.IndexOf(SPtr.Off)). The result lets
// the planner cost this exact database through planner.InputsFor with
// measured skew and distinct-reference counts rather than assumptions.
//
// Each call scans every R object and allocates 8 B per object; the
// statistics are then counted once per returned workload, by its first
// reader. A server calls this once when it opens the store (service.New,
// or once per shard) and shares the result between requests, so no
// request pays either; a caller that asks again pays both again.
func (db *DB) Workload() (*relation.Workload, error) {
	if len(db.R) != db.D || len(db.S) != db.D {
		return nil, fmt.Errorf("mstore: %d/%d relations for D=%d", len(db.R), len(db.S), db.D)
	}
	w := &relation.Workload{
		Spec: relation.Spec{
			NR: db.CountR(), NS: db.CountS(),
			RSize: db.ObjSize, SSize: db.ObjSize,
			PtrSize: sptrBytes,
			D:       db.D,
		},
		Refs: make([][]relation.SPtr, db.D),
	}
	for i, rel := range db.R {
		refs := make([]relation.SPtr, rel.Count())
		for x := range refs {
			ptr := DecodeSPtr(rel.Object(x))
			if int(ptr.Part) >= db.D {
				return nil, fmt.Errorf("mstore: R%d[%d] points to partition %d", i, x, ptr.Part)
			}
			s := db.S[ptr.Part]
			idx := s.IndexOf(ptr.Off)
			if idx < 0 || idx >= s.Count() {
				return nil, fmt.Errorf("mstore: R%d[%d] points to S%d[%d] of %d", i, x, ptr.Part, idx, s.Count())
			}
			refs[x] = relation.SPtr{Part: int32(ptr.Part), Index: int32(idx)}
		}
		w.Refs[i] = refs
	}
	return w, nil
}
