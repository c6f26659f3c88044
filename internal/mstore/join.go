package mstore

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"mmjoin/internal/exec"
	"mmjoin/internal/radix"
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
// nested loops probes it, sort-merge orders it first, Grace hashes it.
// That shape is written once, in joinRun.staged; the operators below it
// are configurations (staging), and the inner loops live in the kernel
// layer (kernel*.go).

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

// morselCount is the number of tasks rangeTasks emits for n objects.
func morselCount(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + morselObjs - 1) / morselObjs
}

// rangeTasks appends one task per morselObjs-sized range of [0, n).
// Empty inputs append nothing, and every emitted range is non-empty —
// the pool never churns through zero-width morsels.
func rangeTasks(tasks []exec.Task, n int, fn func(w, lo, hi int) error) []exec.Task {
	for lo := 0; lo < n; lo += morselObjs {
		hi := min(lo+morselObjs, n)
		tasks = append(tasks, func(w int) error { return fn(w, lo, hi) })
	}
	return tasks
}

// rankBucket maps the object of rank idx among n onto one of k
// order-preserving buckets. The product idx·k overflows int on 32-bit
// platforms at realistic sizes (a 10M-object partition times k=512
// exceeds 2^31), so the math is done in int64.
func rankBucket(idx, k, n int) int {
	if n < 1 || k < 1 {
		return 0
	}
	b := int(int64(idx) * int64(k) / int64(n))
	return min(max(b, 0), k-1)
}

// stageScratch is one worker's private buffer for the scan morsel it is
// running: the morsel's non-resident references and their first-pass
// destinations, decoded once, plus a per-destination count and write
// cursor. cnt is all zero between morsels.
type stageScratch struct {
	refs [morselObjs]ref
	dst  [morselObjs]int32
	cnt  []int
	pos  []int
}

// joinRun is the state every operator shares, built once by DB.Run: the
// pool and context, the batched kernel, the grant limiter (whose
// telemetry the temp arena counts into), the temp arena, the per-worker
// accumulators and the per-worker probe-table arenas.
type joinRun struct {
	db     *DB
	ctx    context.Context
	p      *exec.Pool
	kern   *joinKernel
	lim    *memLimiter
	tmp    tempArena
	stats  perWorker
	arenas []probeArena
	// fanBits is the per-pass partitioning fan-out, log2. DB.Run always
	// sets radix.Bits; only in-package tests narrow it, to reach the
	// deep refine recursion at small K.
	fanBits int
}

func newJoinRun(ctx context.Context, db *DB, p *exec.Pool, lim *memLimiter, tmpDir string) *joinRun {
	return &joinRun{
		db: db, ctx: ctx, p: p, kern: newJoinKernel(db), lim: lim,
		tmp:   tempArena{dir: tmpDir, tel: lim.tel},
		stats: make(perWorker, p.Workers()), arenas: make([]probeArena, p.Workers()),
		fanBits: radix.Bits,
	}
}

// staging configures the skeleton for one operator. Destinations form
// D rows of k order-preserving buckets; row j holds the references into
// S partition j, which is why a staged reference need not name it.
type staging struct {
	k int
	// resident references join during the scan and never touch
	// temporary storage; nil means nothing is resident.
	resident func(i int, p SPtr) bool
	// dest places a non-resident reference found in Ri into a bucket of
	// row p.Part. A staged reference no longer knows i, so a dest that
	// reads it must keep k within one pass's fan-out: refine re-derives
	// buckets from (row, S offset) alone.
	dest func(i int, p SPtr) int
	// finish joins one non-empty final destination — an extent of the
	// arena holding references into S partition part — on worker w. It
	// may run the work inline or enqueue it on the stage's job.
	finish func(s *stagedRun, w, part int, refs []ref) error
}

// stagedRun is one execution of the skeleton.
type stagedRun struct {
	*joinRun
	staging
	jb *exec.Job
	// starts lays every destination out in the arena: (row, b) owns
	// refs[starts[row·k+b] : starts[row·k+b+1]]. Buckets of a row are
	// adjacent, so a coarse group of them is one extent too, at every
	// level of refinement.
	starts []int
}

// staged is the one skeleton under nested loops, sort-merge, Grace and
// hybrid hash: count → lay the destinations out back to back in one
// exactly sized arena → scan (resident references fold immediately
// through the batched kernel, the rest are stored into their
// destination's extent) → one finish task per first-pass destination,
// which returns at once when its extent is empty. A k beyond the
// per-pass fan-out stages in coarse groups of contiguous buckets that
// refine inside their finish task.
func (r *joinRun) staged(cfg staging) error {
	db, d, k := r.db, r.db.D, cfg.k
	s := &stagedRun{joinRun: r, staging: cfg, starts: make([]int, d*k+1)}

	// Count (morsel-parallel, one private array per worker): sizes every
	// destination exactly. The per-worker split means nothing to the
	// scan — morsels are stolen between the two passes — only the sums
	// are kept, as prefix sums.
	local := make([][]int, r.p.Workers())
	var tasks []exec.Task
	for i, ri := range db.R {
		tasks = rangeTasks(tasks, ri.Count(), func(w, lo, hi int) error {
			if local[w] == nil {
				local[w] = make([]int, d*k)
			}
			cnt := local[w]
			for x := lo; x < hi; x++ {
				ptr := DecodeSPtr(ri.Object(x))
				if int(ptr.Part) >= d {
					return fmt.Errorf("mstore: R%d[%d] points to partition %d", i, x, ptr.Part)
				}
				if cfg.resident != nil && cfg.resident(i, ptr) {
					continue
				}
				cnt[int(ptr.Part)*k+cfg.dest(i, ptr)]++
			}
			return nil
		})
	}
	if err := r.p.Run(r.ctx, tasks); err != nil {
		return err
	}
	for _, l := range local {
		for x, c := range l {
			s.starts[x+1] += c
		}
	}
	for x := range d * k {
		s.starts[x+1] += s.starts[x]
	}
	if err := r.tmp.open(s.starts[d*k]); err != nil {
		return err
	}
	refs := r.tmp.refs

	// First-pass destinations: the final buckets themselves when span is
	// 1, else one per contiguous group of span buckets. Each has a claim
	// cursor running over its extent.
	passes, span := radix.Plan(k, r.fanBits)
	shift := bits.TrailingZeros(uint(span))
	groups := (k + span - 1) >> shift
	storeMax(&r.lim.tel.RadixPasses, int64(passes))
	cur := make([]atomic.Int64, d*groups)
	for g := range cur {
		cur[g].Store(int64(s.starts[g/groups*k+(g%groups)<<shift]))
	}

	// Scan. A morsel decodes its references into the worker's scratch,
	// claims one contiguous run per destination it touched with a single
	// atomic add, and fills the runs with plain stores: no lock, and no
	// two writers ever share a slot.
	scratch := make([]*stageScratch, r.p.Workers())
	tasks = tasks[:0]
	for i, ri := range db.R {
		tasks = rangeTasks(tasks, ri.Count(), func(w, lo, hi int) error {
			st := &r.stats[w].JoinStats
			sc := scratch[w]
			if sc == nil {
				sc = &stageScratch{cnt: make([]int, len(cur)), pos: make([]int, len(cur))}
				scratch[w] = sc
			}
			batch := r.kern.newBatch()
			n := 0
			for x := lo; x < hi; x++ {
				obj := ri.Object(x)
				ptr := DecodeSPtr(obj)
				if cfg.resident != nil && cfg.resident(i, ptr) {
					batch.add(obj, st)
					continue
				}
				g := int(ptr.Part)*groups + cfg.dest(i, ptr)>>shift
				sc.refs[n], sc.dst[n] = ref{off: ptr.Off, rid: ridFromObj(obj)}, int32(g)
				sc.cnt[g]++
				n++
			}
			batch.flush(st)
			for x, g := range sc.dst[:n] {
				if c := sc.cnt[g]; c != 0 {
					sc.pos[g] = int(cur[g].Add(int64(c))) - c
					sc.cnt[g] = 0
				}
				refs[sc.pos[g]] = sc.refs[x]
				sc.pos[g]++
			}
			return nil
		})
	}
	if err := r.p.Run(r.ctx, tasks); err != nil {
		return err
	}

	// Finish, one dynamic job: a destination's task may enqueue more
	// (morsels) without a barrier across destinations. Tasks are
	// enqueued in the paper's staggered phase order (§5.1) — row i takes
	// group (i+t) mod groups at phase t — so concurrently executing
	// tasks tend to touch different S partitions.
	s.jb = r.p.Begin(r.ctx)
	tasks = tasks[:0]
	for t := 0; t < groups; t++ {
		for row := 0; row < d; row++ {
			g := (row + t) % groups
			tasks = append(tasks, func(w int) error {
				return s.refine(w, row, g<<shift, span)
			})
		}
	}
	_ = s.jb.Add(tasks...) // a failed Add has failed the job; Wait reports it
	return s.jb.Wait()
}

// refine finishes the extent holding row's final buckets [b0, b0+span).
// A final bucket (span 1) goes to the operator's finish; a coarse group
// is partitioned in place into at most 2^fanBits sub-groups and
// recurses, all within one task — plain moves, no atomics — so a group
// whose references are ready finishes while other groups are still
// partitioning. Sub-group boundaries come from the global counting
// pass, so no re-count scan is needed.
func (s *stagedRun) refine(w, row, b0, span int) error {
	base, bEnd := row*s.k, min(b0+span, s.k)
	lo, hi := s.starts[base+b0], s.starts[base+bEnd]
	if lo == hi {
		return nil
	}
	refs := s.tmp.refs[lo:hi]
	if span == 1 {
		return s.finish(s, w, row, refs)
	}
	sub := max(span>>s.fanBits, 1)
	var bounds []int
	for b := b0; b < bEnd; b += sub {
		bounds = append(bounds, s.starts[base+b]-lo)
	}
	partition(refs, append(bounds, hi-lo), func(e ref) int {
		return (s.dest(row, SPtr{Part: uint32(row), Off: e.off}) - b0) / sub
	})
	for b := b0; b < bEnd; b += sub {
		if err := s.refine(w, row, b, sub); err != nil {
			return err
		}
	}
	return nil
}

// The operators: (resident, dest, k, finish).

// nestedLoops (§5.1): own-partition references join during the scan,
// the rest sub-partition into RP<i,j> — row j, bucket i — probed in
// staggered order. Past one pass's fan-out neighbouring origins share a
// destination (see staging.dest); up to it the mapping is the identity.
func (db *DB) nestedLoops() staging {
	k := min(db.D, 1<<radix.Bits)
	return staging{
		k:        k,
		resident: func(i int, p SPtr) bool { return int(p.Part) == i },
		dest:     func(i int, _ SPtr) int { return rankBucket(i, k, db.D) },
		finish:   (*stagedRun).scanProbe,
	}
}

// sortMerge (§5.2): every reference stages into RSj — its S partition's
// row — already split into address ranges, so ordering RSj by S address
// is an independent in-place sort per split.
func (db *DB) sortMerge(workers int) staging {
	splits := sortSplitCount(workers, db.D, db.CountR()/db.D)
	return staging{
		k: splits,
		dest: func(_ int, p SPtr) int {
			rel := db.S[p.Part]
			return rankBucket(rel.IndexOf(p.Off), splits, rel.Count())
		},
		finish: (*stagedRun).sortProbe,
	}
}

// grace (§5.3) is hybrid hash with nothing resident.
func (db *DB) grace(k int) staging { return db.hybridHash(k, 0) }

// hybridHash: references into a resident prefix of each S partition
// (residentFrac of its objects) join during the scan; the remainder
// hashes into k order-preserving buckets per S partition — bucket by
// position of the S offset within the partition's data area — each
// probed through a grant-metered flat table.
func (db *DB) hybridHash(k int, residentFrac float64) staging {
	residentUpTo := make([]int, db.D)
	for j, rel := range db.S {
		residentUpTo[j] = int(residentFrac * float64(rel.Count()))
	}
	cfg := staging{
		k: k,
		dest: func(_ int, p SPtr) int {
			rel, lo := db.S[p.Part], residentUpTo[p.Part]
			return rankBucket(rel.IndexOf(p.Off)-lo, k, rel.Count()-lo)
		},
		finish: (*stagedRun).tableProbe,
	}
	if residentFrac > 0 {
		cfg.resident = func(_ int, p SPtr) bool {
			return db.S[p.Part].IndexOf(p.Off) < residentUpTo[p.Part]
		}
	}
	return cfg
}

// The finish kinds.

// scanProbe joins a destination in extent order, morsel-parallel.
func (s *stagedRun) scanProbe(_, part int, refs []ref) error {
	return s.jb.Add(rangeTasks(nil, len(refs), func(w, lo, hi int) error {
		s.kern.joinRefs(part, refs[lo:hi], &s.stats[w].JoinStats)
		return nil
	})...)
}

// tableProbe joins a destination through a flat table within the grant.
func (s *stagedRun) tableProbe(w, part int, refs []ref) error {
	return s.probe(w, part, refs, &s.stats[w].JoinStats, 0)
}

// sortSplitCount picks how many address-range splits sort-merge gives
// each S partition's references: enough tasks to occupy the pool across
// all D partitions (with headroom for stealing), but never splits
// smaller than a morsel at count references per partition — the
// expected |R|/D, since k is fixed before the count pass measures the
// real sizes. One worker gets one split per partition — exactly a
// sequential in-place sort.
func sortSplitCount(workers, d, count int) int {
	s := (4*workers + d - 1) / d
	if maxS := count/morselObjs + 1; s > maxS {
		s = maxS
	}
	return max(s, 1)
}

// sortProbe orders one split by S address in place and probes it in
// that order. Splits partition the S partition's address range in
// order, so the whole of RSj is probed ascending within every split,
// MPSM-style partition-local: a small split sorts and probes while a
// large one is still sorting, with no barrier between them.
func (s *stagedRun) sortProbe(w, part int, refs []ref) error {
	slices.SortFunc(refs, func(a, b ref) int { return cmp.Compare(a.off, b.off) })
	return s.scanProbe(w, part, refs)
}

// tableBytesFor is the counted footprint of one bucket's flat probe
// table: the open-addressing slot arrays (8 B key + 4 B head per slot,
// power-of-two slots at ≤3/4 load factor) plus the per-reference chain
// link (4 B) and the distinct-key sweep arrays (worst case 12 B per
// reference, when every reference is distinct).
func tableBytesFor(refs int) int64 {
	return tableSlots(refs)*12 + int64(refs)*16
}

// probe joins one bucket — references into S partition part — within
// the grant on worker w. Each probe reserves its table's counted bytes
// from the join's limiter before building it, so the sum over
// concurrently built tables never exceeds the grant — the invariant the
// skew tests assert. The fast path reserves (waiting for concurrent
// probes when the grant is temporarily occupied) and builds the flat
// table in w's arena; an arena retains its high-water capacity between
// buckets (that is the zero-alloc steady state), which stays within the
// accounting because a worker builds one table at a time and every
// build is reserved at full size first. A bucket whose table can never
// fit — renegotiation included — is restaged into sub-buckets until
// each fits, and a bucket whose references collapse onto a single S
// object (one hot key) streams instead: restaging cannot split it, but
// it also needs no table — and reserves nothing.
func (r *joinRun) probe(w, part int, refs []ref, st *JoinStats, depth int) error {
	need := tableBytesFor(len(refs))
	if r.lim.reserve(need) {
		defer r.lim.release(need)
		r.kern.probeFlat(&r.arenas[w], part, refs, st)
		return nil
	}
	// The minimum and maximum S index the bucket's references name.
	sRel := r.db.S[part]
	lo, hi := int(^uint(0)>>1), -1
	for _, e := range refs {
		idx := sRel.IndexOf(e.off)
		lo, hi = min(lo, idx), max(hi, idx)
	}
	if depth >= maxRestageDepth || lo >= hi {
		r.streamProbe(part, refs, st)
		return nil
	}
	return r.restage(w, part, refs, st, lo, hi, depth)
}

// restage re-partitions one oversized bucket into sub-buckets, in place
// within its extent — the spill path of the dynamic hybrid-hash design.
// The fan-out is just large enough that an average sub-bucket's table
// fits the current grant; skew that concentrates references recurses,
// narrowing the S-index span every pass (min and max always separate),
// until each sub-bucket either fits or has collapsed onto a single hot
// key.
func (r *joinRun) restage(w, part int, refs []ref, st *JoinStats, lo, hi, depth int) error {
	span := hi - lo + 1
	budget := max(r.lim.budgetNow(), 1)
	sub := int((tableBytesFor(len(refs)) + budget - 1) / budget)
	sub = max(min(sub, maxRestageFanout, span), 2)
	sRel := r.db.S[part]
	subOf := func(e ref) int { return rankBucket(sRel.IndexOf(e.off)-lo, sub, span) }
	bounds := make([]int, sub+1)
	for _, e := range refs {
		bounds[subOf(e)+1]++
	}
	for b := range sub {
		bounds[b+1] += bounds[b]
	}
	partition(refs, bounds, subOf)
	r.lim.tel.Restages.Add(1)
	r.lim.tel.RestagedRefs.Add(int64(len(refs)))
	for b := range sub {
		if bounds[b] == bounds[b+1] {
			continue
		}
		if err := r.probe(w, part, refs[bounds[b]:bounds[b+1]], st, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// streamProbe joins one bucket the ladder cannot put in a table — every
// reference names one S object, so restaging cannot split it, or the
// depth rail was hit — in extent order: no table, no reservation. The
// fold is commutative, so any order is bit-identical.
func (r *joinRun) streamProbe(part int, refs []ref, st *JoinStats) {
	r.lim.tel.StreamProbes.Add(1)
	r.kern.joinRefs(part, refs, st)
}
