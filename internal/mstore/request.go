package mstore

import (
	"context"
	"fmt"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/params"
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
//     real-store analogue of join.Params.MRproc and the one memory
//     number a join takes. Grace and hybrid hash derive their bucket
//     count K and hybrid hash its resident S prefix f0 from it, with the
//     rules the simulator and the model use (internal/params) at each
//     partition's expected load |R|/D: f0 = min(1, 0.8·MRproc/(|Sj|·s)),
//     K = ⌈Fuzz·(1−f0)·|RSi|·r / MRproc⌉, and K = 0 when f0 = 1.
//   - K overrides that derivation as in join.Params, up to one scan's
//     fan-out: past 2^params.Bits it folds by ceiling division by
//     2^params.Bits until it fits (DB.plan), and the finish orders each
//     destination in place.
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
	// everything resident, so hybrid hash is the floor (K = 0).
	MRproc int64

	// K is the Grace/hybrid-hash bucket count; 0 derives it from MRproc.
	// Past 2^params.Bits it folds, by ceiling division by 2^params.Bits
	// until it fits, to the destinations one scan fans out to (DB.plan),
	// which Explain's Plan.K reports.
	K int

	// Telemetry, when non-nil, receives the join's counters. The struct
	// must be zero-valued or the counts accumulate across joins, which is
	// also a supported use.
	Telemetry *JoinTelemetry

	// TmpDir is the directory, made if missing by a join that stages,
	// whose file system holds the join's temp arena; "" uses the db dir.
	// Run reuses an idle arena its handle keeps mapped from an earlier
	// join in the same directory, or creates a fresh arena-*.seg there
	// and unlinks it as soon as it is mapped, so the directory never
	// shows one. Concurrent joins may share a TmpDir; each holds its own
	// arena.
	TmpDir string

	// Pool is the join's CPU parallelism: the morsel pool its
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

// validate rejects a request the store cannot execute. K and the
// resident prefix are derived at execution (DB.plan), not folded in.
func (req *JoinRequest) validate(db *DB) error {
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
	return nil
}

// plan derives a staged hash join's bucket count K and resident fraction
// f0 (hybrid hash only; Grace keeps nothing resident) with the shared
// rules, at the expected reference load |R|/D of a partition and the
// average S partition; at MRproc 0 that is K = 1 for Grace and the
// floor (f0 = 1, K = 0) for hybrid hash. K is capped at one bucket per
// expected reference: bucket state (D·K counters and extent bounds) is
// sized by K and not covered by the grant, so more buckets than
// references never pay.
//
// The scan is a join's one partitioning pass and fans out to at most
// 2^params.Bits destinations a row, so a K past that folds by ceiling
// division by 2^params.Bits until it fits (K = 300 stages into 2
// destinations a row). The finish orders every extent in place into S
// windows (orderProbe), so a coarser extent costs no second pass.
func (db *DB) plan(alg join.Algorithm, k int, mrproc int64) (int, float64) {
	refs, size := float64(db.CountR())/float64(db.D), int64(db.ObjSize)
	f0 := 0.0
	if alg == join.HybridHash {
		f0 = params.Resident(mrproc, float64(db.CountS())/float64(db.D), size)
	}
	k = params.Cap(params.Buckets(k, f0, refs, size, mrproc), refs)
	for k > 1<<params.Bits {
		k = (k + 1<<params.Bits - 1) >> params.Bits
	}
	return k, f0
}

// planKey derives the configuration a pointer join runs on a pool of
// workers from the request and |R| alone: nested loops' K is fixed,
// sort-merge's follows the pool, and Grace's and hybrid hash's K and f0
// the grant. K = 0 is the floor (hybrid hash at f0 = 1).
func (db *DB) planKey(req JoinRequest, workers int) planKey {
	key := planKey{alg: req.Algorithm}
	switch req.Algorithm {
	case join.NestedLoops:
		key.k = min(db.D, 1<<params.Bits)
	case join.SortMerge:
		key.k = sortSplitCount(workers, db.D, db.CountR()/db.D)
	default: // join.Grace, join.HybridHash
		key.k, key.f0 = db.plan(req.Algorithm, req.K, req.MRproc)
	}
	return key
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

// Run validates the request, derives its plan, and executes the
// selected algorithm over the mapped store: RunParts with one part. It
// is safe for concurrent use by multiple goroutines (each call gets its
// own temp arena; the base relations are only read); concurrent calls
// sharing req.Pool additionally share its CPU bound.
func (db *DB) Run(req JoinRequest) (JoinStats, error) {
	st, err := RunParts(req.Ctx, req.Pool, []Part{{DB: db, Req: req}})
	if err != nil {
		return JoinStats{}, err
	}
	return JoinStats{Pairs: st[0].Pairs, Signature: st[0].Signature}, nil
}

// Part is one store's share of a join RunParts executes.
type Part struct {
	DB  *DB
	Req JoinRequest // its Ctx and Pool are ignored: RunParts' own run it
	// Shard names the part in its ShardJoinStat and prefixes its errors
	// (shard "id": …); "" adds no prefix.
	Shard string
}

// RunParts executes one join over every part as one job on pool p,
// driven by the calling goroutine. It runs each part's prologue —
// validate, and for a staging join the histogram, the layout and the
// arena — then adds every part's first tasks to one exec.Job and waits
// once: a staging part's last scan morsel adds that part's finish
// tasks, so no part waits on another. A failed prologue returns before
// anything is added, so nothing is in flight; a failed task fails the
// job, and its error is the one returned. Every part's arena goes back
// to its handle's set on return.
//
// A nil ctx is context.Background(), and a nil p a GOMAXPROCS pool made
// for the call. Each part's ShardJoinStat holds its result, its
// telemetry's counters and its ElapsedNs: from the call's start to the
// return of the part's last task.
func RunParts(ctx context.Context, p *exec.Pool, parts []Part) ([]ShardJoinStat, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if p == nil {
		p = exec.NewPool(0)
		defer p.Close()
	}
	jb := p.Begin(ctx)
	runs := make([]*joinRun, 0, len(parts))
	defer func() {
		for _, r := range runs {
			r.tmp.close()
		}
	}()
	first := make([][]exec.Task, len(parts))
	for i, pt := range parts {
		r := newJoinRun(ctx, pt.DB, p, pt.Req.Telemetry, pt.Req.TmpDir)
		r.jb, r.shard = jb, pt.Shard
		runs = append(runs, r)
		var err error
		if first[i], err = r.tasks(pt.Req); err != nil {
			return nil, r.named(err)
		}
	}
	for i, r := range runs {
		r.add(first[i]...)
	}
	if err := jb.Wait(); err != nil {
		return nil, err
	}
	stats := make([]ShardJoinStat, len(parts))
	for i, r := range runs {
		st := r.stats.total()
		stats[i] = ShardJoinStat{
			Shard: r.shard, Algorithm: parts[i].Req.Algorithm.String(),
			Pairs: st.Pairs, Signature: st.Signature,
			ElapsedNs: max(r.end.Load()-start.UnixNano(), 0),
			TempFiles: r.tel.TempFiles.Load(),
		}
	}
	return stats, nil
}

// tasks runs req's prologue on the run and returns the join's first
// tasks.
func (r *joinRun) tasks(req JoinRequest) ([]exec.Task, error) {
	_, l, err := r.db.configure(r.ctx, r.p, req)
	switch {
	case err != nil:
		return nil, err
	case req.Algorithm == join.IndexNL:
		return r.indexNL(), nil
	case req.Algorithm == join.IndexMerge:
		return r.indexMerge(), nil
	}
	return r.staged(l.cfg)
}

// configure is the one derivation of the configuration req runs on a
// pool p: it validates req and returns its plan key and layout — none
// for an index join, which stages nothing; the floor's, which counts
// nothing, when the key's K is 0; otherwise the layout read off the
// handle's histogram, counted at its first use. Run executes exactly
// this layout and Explain prices it.
func (db *DB) configure(ctx context.Context, p *exec.Pool, req JoinRequest) (planKey, *layout, error) {
	if err := req.validate(db); err != nil {
		return planKey{}, nil, err
	}
	if req.Algorithm == join.IndexNL || req.Algorithm == join.IndexMerge {
		return planKey{alg: req.Algorithm}, nil, nil
	}
	key := db.planKey(req, p.Workers())
	if key.k == 0 {
		return key, &layout{cfg: db.floor()}, nil
	}
	h, err := db.histogram(ctx, p)
	if err != nil {
		return planKey{}, nil, err
	}
	return key, h.layout(key), nil
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
// reader. The shard router calls it once per shard, at the shard's first
// auto join, for its PlanFunc, and shares the result between requests; a
// caller that asks again pays both again. The store's own planning
// (Explain) reads |R| and the histogram instead and needs no workload.
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
			idx, err := db.sObject(ptr)
			if err != nil {
				return nil, fmt.Errorf("mstore: R%d[%d] %w", i, x, err)
			}
			refs[x] = relation.SPtr{Part: int32(ptr.Part), Index: int32(idx)}
		}
		w.Refs[i] = refs
	}
	return w, nil
}
