package mstore

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/params"
)

// The joins are morsel-driven: each pass decomposes into fixed-size
// object-range tasks pulled by a work-stealing pool (internal/exec)
// whose size is the host CPU parallelism, independent of D. The paper's
// structural parallelism — one Rproc per disk partition — survives as
// the shape of the task lists (per-partition scans, staggered finish
// order), but the number of goroutines touching the mapping at once is
// the pool's, so a 16-core host saturates on a D=4 database and a
// server running many joins on one shared pool never oversubscribes.
//
// Every morsel folds into a per-worker JoinStats accumulator and the
// accumulators are summed at the end. Pairs and Signature are
// commutative sums, so results are bit-identical at any worker count
// and under any steal schedule.
//
// The paper's three pointer joins are one shape (§5): scan Ri, join
// what is local, stage the rest by S address, finish each staged run —
// nested loops probes it as it lies; sort-merge, Grace and hybrid hash
// order it in place into cache-sized S windows first. That shape is
// written once, in joinRun.staged; the operators are configurations
// (staging) read off the handle's reference histogram (hist.go) or S's
// extents (the floor), and the inner loops live in kernel.go.

// morselObjs is the fixed morsel size: the number of objects one
// work-stealing task covers. Around 4k objects a morsel is a few
// hundred microseconds of work — coarse enough that pool bookkeeping
// (two mutex ops per morsel) vanishes, fine enough to balance skew.
const morselObjs = 4096

// paddedStats is one worker's JoinStats accumulator padded to a cache
// line so concurrent workers do not false-share.
type paddedStats struct {
	JoinStats
	_ [48]byte
}

type perWorker []paddedStats

// total folds the per-worker accumulators; the fold is a commutative
// sum, so the result is independent of which worker ran which morsel.
func (s perWorker) total() JoinStats {
	var t JoinStats
	for i := range s {
		t.Fold(s[i].JoinStats)
	}
	return t
}

// rangeTasks appends one task per range of at most size objects of
// [0, n). Empty inputs append nothing, and every emitted range is
// non-empty — the pool never churns through zero-width morsels.
func rangeTasks(tasks []exec.Task, n, size int, fn func(w, lo, hi int) error) []exec.Task {
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		tasks = append(tasks, func(w int) error { return fn(w, lo, hi) })
	}
	return tasks
}

// stageScratch is one worker's private buffer for the scan morsel it is
// running: the morsel's non-resident references and their
// destinations, decoded once, plus a per-destination count and write
// cursor. cnt is all zero between morsels.
type stageScratch struct {
	refs [morselObjs]ref
	dst  [morselObjs]int32
	cnt  []int
	pos  []int
}

// windowBits is log2 of the probe window: the S address span, 1 MiB,
// that orderProbe lets one in-order sweep cover — half of one core's
// 2 MiB L2 on the 2-CPU Xeon the benchmark was measured on.
const windowBits = 20

// joinRun is the state every operator shares, built once per part by
// RunParts: the pool, context and job its tasks run in, the batched
// kernel, the telemetry (which the temp arena counts into), the temp
// arena and the per-worker accumulators.
type joinRun struct {
	db    *DB
	ctx   context.Context
	p     *exec.Pool
	jb    *exec.Job
	kern  *joinKernel
	tel   *JoinTelemetry
	tmp   tempArena
	stats perWorker
	// shard names the run in its errors (Part.Shard), and end is when
	// its last task returned, in Unix nanoseconds.
	shard string
	end   atomic.Int64
	// fanBits is the fan-out of one level of orderWindows' in-place
	// ordering, log2, and windowBits the probe window, log2 bytes.
	// RunParts always sets params.Bits and the windowBits constant; only
	// in-package tests narrow them, to reach the deep ordering recursion
	// on small stores.
	fanBits, windowBits int
}

// newJoinRun builds a run with its arena in tmpDir ("": db.Dir), no job.
func newJoinRun(ctx context.Context, db *DB, p *exec.Pool, tel *JoinTelemetry, tmpDir string) *joinRun {
	if tel == nil {
		tel = &JoinTelemetry{}
	}
	if tmpDir == "" {
		tmpDir = db.Dir
	}
	return &joinRun{
		db: db, ctx: ctx, p: p, kern: newJoinKernel(db), tel: tel,
		tmp:     tempArena{set: &db.arenas, dir: tmpDir, tel: tel},
		stats:   make(perWorker, p.Workers()),
		fanBits: params.Bits, windowBits: windowBits,
	}
}

// add enqueues tasks on the run's job, each recording when it returned
// and naming the run's shard in its error.
func (r *joinRun) add(tasks ...exec.Task) {
	for x, t := range tasks {
		tasks[x] = func(w int) error {
			err := t(w)
			storeMax(&r.end, time.Now().UnixNano())
			return r.named(err)
		}
	}
	_ = r.jb.Add(tasks...) // a failed Add has failed the job; Wait reports it
}

// named prefixes err with the run's shard, if it has one.
func (r *joinRun) named(err error) error {
	if err != nil && r.shard != "" {
		err = fmt.Errorf("shard %q: %w", r.shard, err)
	}
	return err
}

// staging configures the skeleton for one operator. Destinations form
// D rows of k order-preserving buckets; row j holds the references into
// S partition j, which is why a staged reference need not name it.
type staging struct {
	k int
	// maps[i][j] places Ri's references into S partition j: a bucket of
	// row j, or resident — joined during the scan, never staged. An
	// operator whose maps do not depend on the origin shares one []rowMap
	// across every i.
	maps [][]rowMap
	// starts lays every destination out in the arena: (row, b) owns
	// refs[starts[row·k+b] : starts[row·k+b+1]].
	starts []int
	// finish joins one non-empty destination — an extent of the arena
	// holding references into S partition part — on worker w. It may run
	// the work inline or add it to the run's job.
	finish func(s *stagedRun, w, part int, refs []ref) error
}

// stagedRun is one execution of the skeleton.
type stagedRun struct {
	*joinRun
	staging
}

// staged is the one skeleton under nested loops, sort-merge, Grace and
// hybrid hash. The operator's layout is known — read off the histogram,
// or the floor's, which stages nothing — so the join opens its one
// exactly sized arena at once and returns its scan: resident references
// fold immediately through the batched kernel, the rest are stored into
// their destination's extent. The scan is the only partitioning pass:
// its destinations are the final extents, and its last morsel adds one
// finish task per non-empty one.
//
// The scan applies sObject's rule to every reference (errBadPointer) and
// checks every claim against the histogram, so a pointer moved to another
// S object after the count fails errStale rather than overrun an extent:
// no claim may run past its extent's end, every cursor must reach it.
func (r *joinRun) staged(cfg staging) ([]exec.Task, error) {
	d, k := r.db.D, cfg.k
	s := &stagedRun{joinRun: r, staging: cfg}
	if err := r.tmp.open(s.starts[d*k]); err != nil {
		return nil, err
	}
	r.tel.RadixPasses.Store(1)
	sc := r.newScan(cfg)

	// The finish: no barrier across destinations, as a destination's
	// task may add more (morsels). Tasks are added in the paper's
	// staggered phase order (§5.1) — row i takes bucket (i+t) mod k at
	// phase t — so concurrently executing tasks tend to touch different
	// S partitions.
	finish := func() error {
		if err := sc.settled(); err != nil {
			return err
		}
		var tasks []exec.Task
		for t := 0; t < k; t++ {
			for row := 0; row < d; row++ {
				x := row*k + (row+t)%k
				if lo, hi := s.starts[x], s.starts[x+1]; lo < hi {
					tasks = append(tasks, func(w int) error {
						return s.finish(s, w, row, s.tmp.refs[lo:hi])
					})
				}
			}
		}
		r.add(tasks...)
		return nil
	}
	// An empty R has no scan morsel, and stages nothing to finish.
	var tasks []exec.Task
	var left atomic.Int64
	for i, ri := range r.db.R {
		tasks = rangeTasks(tasks, ri.Count(), morselObjs, func(w, lo, hi int) error {
			if err := sc.morsel(w, i, lo, hi); err != nil || left.Add(-1) > 0 {
				return err
			}
			return finish()
		})
	}
	left.Store(int64(len(tasks)))
	return tasks, nil
}

// scan is the staging scan of one configuration into the open arena.
// Destination (row, b) has a claim cursor running over its extent,
// from starts[row·k+b] up to starts[row·k+b+1].
type scan struct {
	r       *joinRun
	maps    [][]rowMap
	k       int
	starts  []int
	cur     []atomic.Int64
	scratch []*stageScratch // per worker
}

// newScan sets cfg's claim cursors at the starts of their extents.
func (r *joinRun) newScan(cfg staging) *scan {
	s := &scan{
		r: r, maps: cfg.maps, k: cfg.k, starts: cfg.starts,
		cur:     make([]atomic.Int64, r.db.D*cfg.k),
		scratch: make([]*stageScratch, r.p.Workers()),
	}
	for x := range s.cur {
		s.cur[x].Store(int64(cfg.starts[x]))
	}
	return s
}

// morsel scans Ri[lo:hi) on worker w. It decodes its references into
// the worker's scratch, claims one contiguous run per destination it
// touched with a single atomic add, and fills the runs with plain
// stores: no lock, and no two writers ever share a slot. A morsel that
// fails drops its worker's scratch, whose counts it leaves unsettled.
func (s *scan) morsel(w, i, lo, hi int) error {
	r, d, ri, maps := s.r, s.r.db.D, s.r.db.R[i], s.maps[i]
	st := &r.stats[w].JoinStats
	sc := s.scratch[w]
	if sc == nil && len(s.cur) > 0 { // a configuration with no destination stages nothing
		sc = &stageScratch{cnt: make([]int, len(s.cur)), pos: make([]int, len(s.cur))}
		s.scratch[w] = sc
	}
	batch := r.kern.newBatch()
	n := 0
	for x := lo; x < hi; x++ {
		obj := ri.Object(x)
		ptr := DecodeSPtr(obj)
		if int(ptr.Part) >= d {
			return s.badRef(w, i, x, ptr)
		}
		m := &maps[ptr.Part]
		o := uint64(ptr.Off - m.base)
		if o >= m.span || bits.RotateLeft64(o*m.inv, -int(m.tz)) > m.lim {
			return s.badRef(w, i, x, ptr)
		}
		b := m.bucket[o>>m.shift]
		if b < 0 {
			batch.addPair(ridFromObj(obj), ptr, st)
			continue
		}
		g := int(ptr.Part)*s.k + int(b)
		sc.refs[n], sc.dst[n] = ref{off: ptr.Off, rid: ridFromObj(obj)}, int32(g)
		sc.cnt[g]++
		n++
	}
	batch.flush(st)
	if n == 0 {
		return nil
	}
	refs := r.tmp.refs
	for x, g := range sc.dst[:n] {
		if c := sc.cnt[g]; c != 0 {
			to := int(s.cur[g].Add(int64(c)))
			if to > s.starts[g+1] {
				s.scratch[w] = nil
				return fmt.Errorf("%w: more references into S%d than it counted", errStale, int(g)/s.k)
			}
			sc.pos[g] = to - c
			sc.cnt[g] = 0
		}
		refs[sc.pos[g]] = sc.refs[x]
		sc.pos[g]++
	}
	return nil
}

// badRef fails worker w's morsel at R_i[x] = ptr, which the scan's
// checks reject, with sObject's error, as every reader of ptr reports it.
func (s *scan) badRef(w, i, x int, ptr SPtr) error {
	s.scratch[w] = nil
	_, err := s.r.db.sObject(ptr)
	return fmt.Errorf("mstore: R%d[%d] %w", i, x, err)
}

// settled checks that every claim cursor reached its extent's end.
func (s *scan) settled() error {
	for g := range s.cur {
		if int(s.cur[g].Load()) != s.starts[g+1] {
			return fmt.Errorf("%w: fewer references into S%d than it counted", errStale, g/s.k)
		}
	}
	return nil
}

// The finish kinds.

// scanProbe joins a destination in extent order, morsel-parallel.
func (s *stagedRun) scanProbe(_, part int, refs []ref) error {
	s.add(rangeTasks(nil, len(refs), morselObjs, func(w, lo, hi int) error {
		s.kern.joinRefs(part, refs[lo:hi], &s.stats[w].JoinStats)
		return nil
	})...)
	return nil
}

// sortSplitCount is sort-merge's bucket count (§5.2: Grace at this count,
// each split of a row ordered on its own): enough tasks to occupy the
// pool across all D partitions (with headroom for stealing), but never
// splits smaller than a morsel at count references per partition
// (|R|/D). One worker gets one split per partition — exactly a
// sequential in-place ordering.
func sortSplitCount(workers, d, count int) int {
	s := (4*workers + d - 1) / d
	if maxS := count/morselObjs + 1; s > maxS {
		s = maxS
	}
	return max(s, 1)
}

// orderProbe is the finish of sort-merge, Grace and hybrid hash. S is
// laid out by address, so a reference's S offset is its own order key:
// there is nothing to hash and no need to sort below the size of a
// cache. The extent is read once for its least and greatest offset; if
// they lie within one window the extent is probed as it lies, and
// otherwise it is ordered in place into consecutive windows and probed
// window by window, each stretch of the sweep reading one cache-sized
// part of S. Every extent is finished on its own, MPSM-style
// partition-local: a small one orders and probes while a large one is
// still ordering, with no barrier between them.
func (s *stagedRun) orderProbe(w, part int, refs []ref) error {
	lo, hi := refs[0].off, refs[0].off
	for _, e := range refs[1:] {
		lo, hi = min(lo, e.off), max(hi, e.off)
	}
	return s.orderWindows(w, part, refs, lo, bits.Len64(uint64(hi-lo)))
}

// orderWindows finishes refs, whose S offsets all lie in
// [lo, lo + 2^width). Within one window (width ≤ windowBits) it probes:
// inline on worker w up to a morsel — no task, no allocation, which is
// what the thousands of small Grace buckets of a skewed store need —
// else through scanProbe's morsels. A wider range is split in place into
// at most 2^fanBits classes of (off − lo) >> shift, counted in one pass,
// and each class recurses in address order. Classes are aligned on lo,
// so every leaf is exactly one window of the extent's range.
func (s *stagedRun) orderWindows(w, part int, refs []ref, lo Ptr, width int) error {
	if width <= s.windowBits {
		if len(refs) <= morselObjs {
			s.kern.joinRefs(part, refs, &s.stats[w].JoinStats)
			return nil
		}
		return s.scanProbe(w, part, refs)
	}
	shift := max(width-s.fanBits, s.windowBits)
	class := func(e ref) int { return int((e.off - lo) >> shift) }
	bounds := make([]int, 1<<(width-shift)+1)
	for _, e := range refs {
		bounds[class(e)+1]++
	}
	for c := 1; c < len(bounds); c++ {
		bounds[c] += bounds[c-1]
	}
	partition(refs, bounds, class)
	for c := range len(bounds) - 1 {
		if bounds[c] == bounds[c+1] {
			continue
		}
		if err := s.ctx.Err(); err != nil {
			return err
		}
		if err := s.orderWindows(w, part, refs[bounds[c]:bounds[c+1]], lo+Ptr(c)<<shift, shift); err != nil {
			return err
		}
	}
	return nil
}
