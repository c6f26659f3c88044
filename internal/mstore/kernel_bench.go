package mstore

import (
	"context"
	"fmt"

	"mmjoin/internal/exec"
)

// BucketSet materializes a database's Grace buckets once so the probe
// stage can be driven — and timed — in isolation, bucket partitioning
// excluded. cmd/bench's kernels panel and the go-bench suite probe one
// BucketSet repeatedly through the flat-table kernel and report
// ns-per-pair and allocs-per-pair; TestKernelFlatMatchesMap probes the
// same buckets through the map reference kernel as a differential gate.
type BucketSet struct {
	buckets []bucket
	refs    int64
	kern    *joinKernel
	arena   probeArena
	tmp     *tempArena
}

// bucket is one non-empty Grace bucket: an extent of the set's temp
// arena holding references into S partition part.
type bucket struct {
	part int
	refs []ref
}

// BuildGraceBuckets partitions R into k order-preserving Grace buckets
// per S partition under tmpDir and returns the non-empty ones ready for
// repeated probing: the Grace staging with a finish that keeps each
// bucket instead of probing it. The build runs on one worker — it is
// setup for measurement, not the measured stage. Close deletes the
// arena the buckets live in.
func (db *DB) BuildGraceBuckets(tmpDir string, k int) (*BucketSet, error) {
	if k < 1 {
		return nil, fmt.Errorf("mstore: BuildGraceBuckets needs k >= 1, got %d", k)
	}
	p := exec.NewPool(1)
	defer p.Close()
	r := newJoinRun(context.Background(), db, p, newMemLimiter(0, nil, nil), tmpDir)
	bs := &BucketSet{kern: r.kern, tmp: &r.tmp}
	cfg := db.grace(k)
	cfg.finish = func(_ *stagedRun, _, part int, refs []ref) error {
		bs.buckets = append(bs.buckets, bucket{part, refs})
		bs.refs += int64(len(refs))
		return nil
	}
	if err := r.staged(cfg); err != nil {
		bs.Close()
		return nil, err
	}
	return bs, nil
}

// Buckets returns the number of non-empty buckets.
func (bs *BucketSet) Buckets() int { return len(bs.buckets) }

// Refs returns the total reference count across buckets — one probe
// pass folds exactly this many pairs.
func (bs *BucketSet) Refs() int64 { return bs.refs }

// ProbeFlat probes every bucket through the flat arena-backed table
// and returns the folded stats. After the first call the arena has
// reached its high-water capacity and subsequent calls allocate
// nothing.
func (bs *BucketSet) ProbeFlat() JoinStats {
	var st JoinStats
	for _, b := range bs.buckets {
		bs.kern.probeFlat(&bs.arena, b.part, b.refs, &st)
	}
	return st
}

// Close deletes the arena.
func (bs *BucketSet) Close() {
	bs.tmp.close()
	bs.buckets = nil
}
