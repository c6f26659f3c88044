package mstore

import (
	"context"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"mmjoin/internal/exec"
	"mmjoin/internal/pheap"
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

// temps owns every temporary relation of one join: it names them,
// counts them into JoinTelemetry.TempFiles, and deletes whatever is
// still live when the join returns, on every exit path. Stages that
// know a temporary is dead sooner (a refined group, a probed bucket)
// drop it early to bound the live set.
type temps struct {
	db  *DB
	dir string
	tel *JoinTelemetry

	seq  atomic.Int64
	mu   sync.Mutex
	live map[*Relation]struct{}
}

func newTemps(db *DB, dir string, tel *JoinTelemetry) *temps {
	return &temps{db: db, dir: dir, tel: tel, live: make(map[*Relation]struct{})}
}

// create makes a throwaway relation for capacity objects. Capacity 0
// still allocates one slot so the relation is well-formed.
func (t *temps) create(capacity int) (*Relation, error) {
	capacity = max(capacity, 1)
	path := filepath.Join(t.dir, fmt.Sprintf("t%d.seg", t.seq.Add(1)))
	// Create truncates, so a name already present — two joins sharing a
	// TmpDir — would silently corrupt a live temporary instead of failing.
	if _, err := os.Lstat(path); err == nil {
		return nil, fmt.Errorf("mstore: temp relation name collision: %s", path)
	}
	seg, err := Create(path, int64(t.db.ObjSize)*int64(capacity)+4096)
	if err != nil {
		return nil, err
	}
	rel, err := CreateRelation(seg, t.db.ObjSize, capacity)
	if err != nil {
		seg.Delete()
		return nil, err
	}
	t.mu.Lock()
	t.live[rel] = struct{}{}
	t.mu.Unlock()
	t.tel.TempFiles.Add(1)
	return rel, nil
}

// drop deletes one temporary before the join ends.
func (t *temps) drop(rel *Relation) {
	t.mu.Lock()
	delete(t.live, rel)
	t.mu.Unlock()
	rel.Segment().Delete()
}

// close deletes every temporary still live. Callers run it after the
// pool has retired the join's last task.
func (t *temps) close() {
	for rel := range t.live {
		rel.Segment().Delete()
	}
	t.live = nil
}

// joinRun is the state every operator shares, built once by DB.Run: the
// pool and context, the batched kernel, the grant limiter (whose
// telemetry the temp owner counts into), the temp owner, the per-worker
// accumulators and the per-worker probe-table arenas.
type joinRun struct {
	db     *DB
	ctx    context.Context
	p      *exec.Pool
	kern   *joinKernel
	lim    *memLimiter
	tmp    *temps
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
		tmp:   newTemps(db, tmpDir, lim.tel),
		stats: make(perWorker, p.Workers()), arenas: make([]probeArena, p.Workers()),
		fanBits: radix.Bits,
	}
}

// staging configures the skeleton for one operator. Destinations form
// D rows of k order-preserving buckets; every destination holds
// references into exactly one S partition.
type staging struct {
	k int
	// resident references join during the scan and never touch
	// temporary storage; nil means nothing is resident.
	resident func(i int, p SPtr) bool
	// dest places a non-resident reference found in Ri.
	dest func(i int, p SPtr) (row, b int)
	// finish joins one sealed final destination on worker w. It may run
	// the work inline or enqueue it on the stage's job.
	finish func(s *stagedRun, w int, rel *Relation) error
}

// stagedRun is one execution of the skeleton.
type stagedRun struct {
	*joinRun
	staging
	jb     *exec.Job
	counts []int // final-destination occupancy, [row·k + b]
	passes int   // partitioning passes, by radix.Plan
}

func sum(counts []int) (n int) {
	for _, c := range counts {
		n += c
	}
	return n
}

// staged is the one skeleton under nested loops, sort-merge, Grace and
// hybrid hash: count → lazily create destinations → scan (resident
// references fold immediately through the batched kernel, the rest
// append to their destination) → one finish task per non-empty
// destination. A k beyond the per-pass fan-out stages in coarse groups
// of contiguous buckets that refine inside their finish task.
func (r *joinRun) staged(cfg staging) error {
	db, d, k := r.db, r.db.D, cfg.k
	s := &stagedRun{joinRun: r, staging: cfg, counts: make([]int, d*k)}

	// Count (morsel-parallel, one private array per worker): sizes every
	// destination exactly, so a measured-empty one is never created.
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
				row, b := cfg.dest(i, ptr)
				cnt[row*k+b]++
			}
			return nil
		})
	}
	if err := r.p.Run(r.ctx, tasks); err != nil {
		return err
	}
	for _, l := range local {
		for x, c := range l {
			s.counts[x] += c
		}
	}

	// First-pass destinations: the final buckets themselves when span is
	// 1, else one per contiguous group of span buckets. (Eager D·K
	// creation meant 32k mmap'd files per join at D=64, K=512.)
	passes, span := radix.Plan(k, r.fanBits)
	s.passes = passes
	shift := bits.TrailingZeros(uint(span))
	groups := (k + span - 1) >> shift
	r.lim.tel.RadixPasses.Store(int64(passes))
	top := make([]*Appender, d*groups)
	for g := range top {
		row, b0 := g/groups, (g%groups)<<shift
		n := sum(s.counts[row*k+b0 : row*k+min(b0+span, k)])
		if n == 0 {
			continue
		}
		rel, err := r.tmp.create(n)
		if err != nil {
			return err
		}
		top[g] = NewAppender(rel)
	}

	// Scan.
	tasks = tasks[:0]
	for i, ri := range db.R {
		tasks = rangeTasks(tasks, ri.Count(), func(w, lo, hi int) error {
			st := &r.stats[w].JoinStats
			batch := r.kern.newBatch()
			for x := lo; x < hi; x++ {
				obj := ri.Object(x)
				ptr := DecodeSPtr(obj)
				if cfg.resident != nil && cfg.resident(i, ptr) {
					batch.add(obj, st)
					continue
				}
				row, b := cfg.dest(i, ptr)
				if err := top[row*groups+b>>shift].Append(obj); err != nil {
					return err
				}
			}
			batch.flush(st)
			return nil
		})
	}
	if err := r.p.Run(r.ctx, tasks); err != nil {
		return err
	}

	// Finish, one dynamic job: a destination's task may enqueue more
	// (morsels, sort stages) without a barrier across destinations.
	// Tasks are enqueued in the paper's staggered phase order (§5.1) —
	// row i takes group (i+t) mod groups at phase t — so concurrently
	// executing tasks tend to touch different S partitions.
	s.jb = r.p.Begin(r.ctx)
	tasks = tasks[:0]
	for t := 0; t < groups; t++ {
		for row := 0; row < d; row++ {
			g := (row + t) % groups
			ap := top[row*groups+g]
			if ap == nil {
				continue
			}
			ap.Seal()
			tasks = append(tasks, func(w int) error {
				return s.refine(w, ap.Relation(), row, g<<shift, span)
			})
		}
	}
	_ = s.jb.Add(tasks...) // a failed Add has failed the job; Wait reports it
	return s.jb.Wait()
}

// refine finishes one staged group holding row's final buckets
// [b0, b0+span). A final bucket (span 1) goes to the operator's finish;
// a coarse group scatters into at most 2^fanBits sub-groups and
// recurses, all within one task — plain appends, no atomics — so a
// group whose references are ready finishes while other groups are
// still partitioning. Sub-group sizes come from the global counting
// pass, so no re-count scan is needed.
func (s *stagedRun) refine(w int, src *Relation, row, b0, span int) error {
	if span == 1 {
		return s.finish(s, w, src)
	}
	k := s.k
	sub := max(span>>s.fanBits, 1)
	bEnd := min(b0+span, k)
	rels := make([]*Relation, (bEnd-b0+sub-1)/sub)
	for c := range rels {
		n := sum(s.counts[row*k+b0+c*sub : row*k+min(b0+(c+1)*sub, bEnd)])
		if n == 0 {
			continue
		}
		var err error
		if rels[c], err = s.tmp.create(n); err != nil {
			return err
		}
	}
	view, base, size := src.seg.data, int64(src.data), src.size
	for x, n := 0, src.Count(); x < n; x++ {
		obj := view[base+int64(x)*size : base+int64(x+1)*size]
		_, b := s.dest(row, DecodeSPtr(obj))
		if _, err := rels[(b-b0)/sub].Append(obj); err != nil {
			return err
		}
	}
	s.tmp.drop(src)
	for c, rel := range rels {
		if rel == nil {
			continue
		}
		if err := s.refine(w, rel, row, b0+c*sub, sub); err != nil {
			return err
		}
	}
	return nil
}

// The operators: (resident, dest, k, finish).

// nestedLoops (§5.1): own-partition references join during the scan,
// the rest sub-partition into RP<i,j>, probed in staggered order.
func (db *DB) nestedLoops() staging {
	return staging{
		k:        db.D,
		resident: func(i int, p SPtr) bool { return int(p.Part) == i },
		dest:     func(i int, p SPtr) (int, int) { return i, int(p.Part) },
		finish:   (*stagedRun).scanProbe,
	}
}

// sortMerge (§5.2): every reference stages into its S partition's RSj,
// which the finish orders by S address before probing.
func (db *DB) sortMerge() staging {
	return staging{
		k:      1,
		dest:   func(_ int, p SPtr) (int, int) { return int(p.Part), 0 },
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
		dest: func(_ int, p SPtr) (int, int) {
			rel, lo := db.S[p.Part], residentUpTo[p.Part]
			return int(p.Part), rankBucket(rel.IndexOf(p.Off)-lo, k, rel.Count()-lo)
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

// scanProbe joins a destination in file order, morsel-parallel.
func (s *stagedRun) scanProbe(_ int, rel *Relation) error {
	return s.jb.Add(rangeTasks(nil, rel.Count(), func(w, lo, hi int) error {
		s.kern.joinRange(rel, lo, hi, &s.stats[w].JoinStats)
		return nil
	})...)
}

// tableProbe joins a destination through a flat table within the
// grant. Under multi-pass partitioning it then drops the bucket — K is
// large there and the final buckets of a row must not all stay live.
// Single-pass buckets wait for the temp owner's close instead:
// unmapping a file while the other workers are still faulting their
// buckets in stalls them (+50% on a lib_fit-sized Grace join).
func (s *stagedRun) tableProbe(w int, rel *Relation) error {
	err := s.probe(w, rel, &s.stats[w].JoinStats, 0)
	if s.passes > 1 {
		s.tmp.drop(rel)
	}
	return err
}

// sortSplitCount picks how many address-range splits one destination's
// partition-then-sort uses: enough tasks to occupy the pool across all
// D partitions (with headroom for stealing), but never splits smaller
// than a morsel. One worker gets one split per partition — exactly a
// sequential in-place sort.
func sortSplitCount(workers, d, count int) int {
	s := (4*workers + d - 1) / d
	if maxS := count/morselObjs + 1; s > maxS {
		s = maxS
	}
	return max(s, 1)
}

// sortProbe orders a destination by S address via parallel
// partition-then-sort and batch-probes its S partition in ascending
// address order within every split.
//
// It is MPSM-style partition-local, with no barrier between stages: the
// last split-count morsel builds the prefix sums, creates the
// split-layout relation and enqueues the scatter; the last scatter
// morsel enqueues the sort+probe splits. A small destination sorts and
// probes while a large one is still counting — under skew a global
// barrier would idle every worker on the largest partition three times.
func (s *stagedRun) sortProbe(_ int, rel *Relation) error {
	n := rel.Count()
	sRel := s.db.S[DecodeSPtr(rel.Object(0)).Part]
	splits := sortSplitCount(s.p.Workers(), s.db.D, n)
	splitOf := func(obj []byte) int {
		return rankBucket(sRel.IndexOf(DecodeSPtr(obj).Off), splits, sRel.Count())
	}
	splitCounts := make([]int64, splits)
	starts := make([]int64, splits)         // split start offsets after prefix sums
	cursors := make([]atomic.Int64, splits) // scatter cursors per split
	var countLeft, scatterLeft atomic.Int64
	countLeft.Store(int64(morselCount(n)))
	scatterLeft.Store(int64(morselCount(n)))
	var dst *Relation

	// One split's terminal stage: heap-sort a handle array over the
	// mapped records by S pointer, apply the permutation in place, then
	// batch-probe — sequential in both the split and the S partition.
	sortSplit := func(lo, hi int) exec.Task {
		return func(w int) error {
			handles := make([]int32, hi-lo)
			for h := range handles {
				handles[h] = int32(h)
			}
			pheap.Sort(handles, func(a, b int32) bool {
				return DecodeSPtr(dst.Object(lo+int(a))).Off < DecodeSPtr(dst.Object(lo+int(b))).Off
			})
			permuteRange(dst, lo, handles)
			s.kern.joinRange(dst, lo, hi, &s.stats[w].JoinStats)
			return nil
		}
	}
	scatter := func(_, lo, hi int) error {
		// Slots are claimed atomically, so no two writers touch one
		// record; order within a split is arbitrary — the sort imposes
		// the final order.
		for x := lo; x < hi; x++ {
			obj := rel.Object(x)
			slot := cursors[splitOf(obj)].Add(1) - 1
			copy(dst.seg.Bytes(dst.PtrAt(int(slot)), dst.size), obj)
		}
		if scatterLeft.Add(-1) != 0 {
			return nil
		}
		var sp []exec.Task
		for b := range starts {
			if lo, hi := int(starts[b]), int(starts[b]+splitCounts[b]); lo < hi {
				sp = append(sp, sortSplit(lo, hi))
			}
		}
		return s.jb.Add(sp...)
	}
	return s.jb.Add(rangeTasks(nil, n, func(_, lo, hi int) error {
		local := make([]int64, splits)
		for x := lo; x < hi; x++ {
			local[splitOf(rel.Object(x))]++
		}
		for b, c := range local {
			if c != 0 {
				atomic.AddInt64(&splitCounts[b], c)
			}
		}
		if countLeft.Add(-1) != 0 {
			return nil
		}
		off := int64(0)
		for b := range starts {
			starts[b] = off
			cursors[b].Store(off)
			off += splitCounts[b]
		}
		var err error
		if dst, err = s.tmp.create(n); err != nil {
			return err
		}
		dst.SetCount(n)
		return s.jb.Add(rangeTasks(nil, n, scatter)...)
	})...)
}

// permuteRange reorders rel[lo : lo+len(handles)] so record lo+x
// becomes the record previously at lo+handles[x], cycle-chasing with
// one scratch record.
func permuteRange(rel *Relation, lo int, handles []int32) {
	n := len(handles)
	visited := make([]bool, n)
	scratch := make([]byte, rel.ObjSize())
	for start := 0; start < n; start++ {
		if visited[start] || int(handles[start]) == start {
			visited[start] = true
			continue
		}
		copy(scratch, rel.Object(lo+start))
		x := start
		for {
			src := int(handles[x])
			visited[x] = true
			if src == start {
				copy(rel.Object(lo+x), scratch)
				break
			}
			copy(rel.Object(lo+x), rel.Object(lo+src))
			x = src
		}
	}
}

// tableBytesFor is the counted footprint of one bucket's flat probe
// table: the open-addressing slot arrays (8 B key + 4 B head per slot,
// power-of-two slots at ≤3/4 load factor) plus the per-reference chain
// link (4 B) and the distinct-key sweep arrays (worst case 12 B per
// reference, when every reference is distinct).
func tableBytesFor(refs int) int64 {
	return tableSlots(refs)*12 + int64(refs)*16
}

// probe joins one bucket within the grant on worker w. Each probe
// reserves its table's counted bytes from the join's limiter before
// building it, so the sum over concurrently built tables never exceeds
// the grant — the invariant the skew tests assert. The fast path
// reserves (waiting for concurrent probes when the grant is temporarily
// occupied) and builds the flat table in w's arena; an arena retains
// its high-water capacity between buckets (that is the zero-alloc
// steady state), which stays within the accounting because a worker
// builds one table at a time and every build is reserved at full size
// first. A bucket whose table can never fit — renegotiation included —
// is restaged into sub-buckets on disk until each fits, and a bucket
// whose references collapse onto a single S object (one hot key)
// streams instead: restaging cannot split it, but it also needs no
// table.
func (r *joinRun) probe(w int, rel *Relation, st *JoinStats, depth int) error {
	need := tableBytesFor(rel.Count())
	if r.lim.reserve(need) {
		defer r.lim.release(need)
		r.kern.probeFlat(&r.arenas[w], rel, st)
		return nil
	}
	// The minimum and maximum S index the bucket's references name
	// (they all point into one S partition, so indexes are comparable).
	lo, hi := int(^uint(0)>>1), -1
	for x := 0; x < rel.Count(); x++ {
		idx := r.sIndex(DecodeSPtr(rel.Object(x)))
		lo, hi = min(lo, idx), max(hi, idx)
	}
	if depth >= maxRestageDepth || lo >= hi {
		return r.streamProbe(rel, st)
	}
	return r.restage(w, rel, st, lo, hi, depth)
}

// sIndex is the rank of the S object p names within its partition.
func (r *joinRun) sIndex(p SPtr) int { return r.db.S[p.Part].IndexOf(p.Off) }

// restage re-partitions one oversized bucket into sub-buckets on disk —
// the spill path of the dynamic hybrid-hash design. The fan-out is just
// large enough that an average sub-bucket's table fits the current
// grant; skew that concentrates references recurses, narrowing the
// S-index span every pass (min and max always separate), until each
// sub-bucket either fits or has collapsed onto a single hot key.
func (r *joinRun) restage(w int, rel *Relation, st *JoinStats, lo, hi, depth int) error {
	span := hi - lo + 1
	budget := max(r.lim.budgetNow(), 1)
	sub := int((tableBytesFor(rel.Count()) + budget - 1) / budget)
	sub = max(min(sub, maxRestageFanout, span), 2)
	subOf := func(x int) int {
		return rankBucket(r.sIndex(DecodeSPtr(rel.Object(x)))-lo, sub, span)
	}
	cnts := make([]int, sub)
	for x := 0; x < rel.Count(); x++ {
		cnts[subOf(x)]++
	}
	subs := make([]*Relation, sub)
	for x := 0; x < rel.Count(); x++ {
		b := subOf(x)
		if subs[b] == nil {
			var err error
			if subs[b], err = r.tmp.create(cnts[b]); err != nil {
				return err
			}
		}
		if _, err := subs[b].Append(rel.Object(x)); err != nil {
			return err
		}
	}
	r.lim.tel.Restages.Add(1)
	r.lim.tel.RestagedRefs.Add(int64(rel.Count()))
	for _, s := range subs {
		if s == nil {
			continue
		}
		if err := r.probe(w, s, st, depth+1); err != nil {
			return err
		}
		r.tmp.drop(s)
	}
	return nil
}

// streamProbe joins one bucket without ever building its table: the
// bucket is processed in grant-sized chunks whose handles are sorted by
// S address, so memory is bounded by one chunk's handle array while the
// probe still walks S in ascending order within each chunk — and the
// ordered walk is batch-gathered like every other kernel. Correctness
// does not depend on the order — Pairs and Signature fold as
// commutative sums — so the result stays bit-identical.
func (r *joinRun) streamProbe(rel *Relation, st *JoinStats) error {
	r.lim.tel.StreamProbes.Add(1)
	n := rel.Count()
	chunk := n
	if r.lim.bounded() {
		chunk = int(min(int64(n), max(r.lim.budgetNow()/streamHandleBytes, 1)))
	}
	bytes := int64(chunk) * streamHandleBytes
	if !r.lim.reserve(bytes) {
		// A grant below one handle: degenerate, but still bounded — scan
		// in file order with no auxiliary memory at all.
		r.kern.joinRange(rel, 0, n, st)
		return nil
	}
	defer r.lim.release(bytes)
	handles := make([]int32, chunk)
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		h := handles[:hi-lo]
		for i := range h {
			h[i] = int32(lo + i)
		}
		pheap.Sort(h, func(a, b int32) bool {
			return DecodeSPtr(rel.Object(int(a))).Off < DecodeSPtr(rel.Object(int(b))).Off
		})
		b := r.kern.newBatch()
		for _, x := range h {
			b.add(rel.Object(int(x)), st)
		}
		b.flush(st)
	}
	return nil
}
