package mstore

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/params"
)

// Explain is the store's own cost model, built the way the paper builds
// its own (Fig. 1): measure the machine's functions, then predict by
// counting. The counts are |R| and what the handle's reference histogram
// (hist.go), the table Run lays a staging arena out from, says a join
// will stage, reorder and probe. The unit costs come
// from a profile the handle measures once on its own relations, timing
// its own kernels over a sample of them. No cost is typed in: the
// simulator and the disk model (internal/model) price the paper's 1996
// machine and stay the reproduction; this model prices the store.

// Plan is one join as Run would execute it, with its predicted
// wall-clock time.
type Plan struct {
	Algorithm join.Algorithm
	// K is the bucket count of each S partition's row — the destinations
	// the scan stages into (nested loops: its origin buckets; 0 for the
	// index joins and a fully resident hybrid hash) — and F0 hybrid
	// hash's resident fraction.
	K  int
	F0 float64
	// Resident references join during the scan; Staged ones go through
	// the temp arena, filling ArenaBytes of it (0 when nothing stages):
	// the size a cold arena is created at, which a reused one may pass.
	Resident, Staged int64
	ArenaBytes       int64
	// Moves counts the reference moves of the in-place partition passes
	// after the scan, which order each extent down to S windows
	// (orderProbe), read off the span of cells it covers.
	Moves int64
	// PredictedNs is the predicted wall-clock time of the join on its
	// pool, in nanoseconds.
	PredictedNs int64
}

// Fold adds another shard's plan into p. The counts and the predicted
// time sum, since the shards of a router share one pool; K and F0 keep
// the largest shard's.
func (p *Plan) Fold(q Plan) {
	p.K, p.F0 = max(p.K, q.K), max(p.F0, q.F0)
	p.Resident += q.Resident
	p.Staged += q.Staged
	p.ArenaBytes += q.ArenaBytes
	p.Moves += q.Moves
	p.PredictedNs += q.PredictedNs
}

// Operators lists the algorithms a store executes: the four staging
// joins, and the two index joins when it carries persistent indexes.
func Operators(indexed bool) []join.Algorithm {
	ops := []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash}
	if indexed {
		ops = append(ops, join.IndexNL, join.IndexMerge)
	}
	return ops
}

// Rank explains req under each of algs on st and returns the plans
// cheapest first; equal predictions keep algs' order.
func Rank(st Store, req JoinRequest, algs []join.Algorithm) ([]Plan, error) {
	plans := make([]Plan, len(algs))
	for x, alg := range algs {
		req.Algorithm = alg
		p, err := st.Explain(req)
		if err != nil {
			return nil, fmt.Errorf("explaining %v: %w", alg, err)
		}
		plans[x] = p
	}
	slices.SortStableFunc(plans, func(a, b Plan) int { return cmp.Compare(a.PredictedNs, b.PredictedNs) })
	return plans, nil
}

// Explain returns the plan Run would execute for req, without running
// it, and its predicted wall-clock time on req.Pool (nil: a GOMAXPROCS
// pool, as Run makes). The handle's first call measures its profile and
// its first of a plan that stages counts its histogram, each once —
// concurrent first callers wait on one, and a measurement its context
// stops caches nothing; later calls lay out no arena. The profile prices
// the temp arena on the file system joins stage into: under req.TmpDir
// when it is set, else under the store's directory, as Run does.
func (db *DB) Explain(req JoinRequest) (Plan, error) {
	ctx := req.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	p := req.Pool
	if p == nil {
		p = exec.NewPool(0)
		defer p.Close()
	}
	key, l, err := db.configure(ctx, p, req)
	if err != nil {
		return Plan{}, err
	}
	plan := Plan{Algorithm: req.Algorithm, K: key.k, F0: key.f0, Resident: int64(db.CountR())}
	if l != nil {
		plan.Resident -= l.staged
		plan.Staged, plan.Moves = l.staged, l.moves
		if l.staged > 0 {
			plan.ArenaBytes = headerSize + l.staged*refBytes
		}
	}
	pr, err := db.profile(ctx, p, req.TmpDir)
	if err != nil {
		return Plan{}, err
	}
	plan.PredictedNs = pr.predict(plan, p.Workers())
	return plan, nil
}

// planCounts is what one staging configuration does to the histogram's
// references: a Plan's counts less what the request alone determines.
type planCounts struct{ staged, moves int64 }

// layout is one staging configuration read off the histogram, with its
// counts. Joins share it read-only.
type layout struct {
	cfg staging
	planCounts
}

// maxLayoutBytes bounds the memory a histogram's layout cache holds. A
// layout's cell tables take 4 B a cell (64 KiB at D = 4) and its extent
// bounds 8 B a bucket, at most 2^params.Bits buckets a row for Grace and
// hybrid hash (DB.plan), so a layout grows with D and the cache is
// bounded by bytes, not keys: a layout that would overflow it starts
// the cache over, and one larger than the bound alone is not cached.
const maxLayoutBytes = 1 << 20

// layout returns key's configuration and counts, read off the histogram
// at the key's first use and cached.
func (h *refHist) layout(key planKey) *layout {
	h.layoutsMu.Lock()
	defer h.layoutsMu.Unlock()
	if l, ok := h.layouts[key]; ok {
		return l
	}
	cfg := h.configure(key)
	l := &layout{cfg: cfg, planCounts: h.count(cfg, key.alg != join.NestedLoops)}
	size := cfg.bytes()
	if size > maxLayoutBytes {
		return l
	}
	if h.layouts == nil || h.layoutBytes+size > maxLayoutBytes {
		h.layouts, h.layoutBytes = make(map[planKey]*layout), 0
	}
	h.layouts[key], h.layoutBytes = l, h.layoutBytes+size
	return l
}

// bytes is the memory cfg's tables and extent bounds take.
func (cfg staging) bytes() int {
	n := 8 * len(cfg.starts)
	for i, row := range cfg.maps {
		if i > 0 && &row[0] == &cfg.maps[0][0] {
			break // every origin shares the first row's maps
		}
		for _, m := range row {
			n += 4 * len(m.bucket)
		}
	}
	return n
}

// count reads cfg's work off the histogram. When the finish orders
// (orderProbe) each extent's references move once per params.Bits of its
// span beyond a window; the span is the extent's cells', which bounds
// the span of its references from above.
func (h *refHist) count(cfg staging, orders bool) planCounts {
	d, k := h.d, cfg.k
	c := planCounts{staged: int64(cfg.starts[d*k])}
	if !orders {
		return c
	}
	for j, cnt := range h.cells {
		shift, bucket := h.geo[j].shift, cfg.maps[0][j].bucket
		extent := func(b int32, first, last int) {
			if first < 0 {
				return
			}
			width := bits.Len64(uint64(last-first+1)<<shift - 1)
			if width > windowBits {
				levels := (width - windowBits + params.Bits - 1) / params.Bits
				c.moves += int64(levels) * int64(cfg.starts[j*k+int(b)+1]-cfg.starts[j*k+int(b)])
			}
		}
		b, first, last := int32(-1), -1, -1
		for x, n := range cnt {
			if n == 0 || bucket[x] < 0 {
				continue
			}
			if bucket[x] != b {
				extent(b, first, last)
				b, first = bucket[x], x
			}
			last = x
		}
		extent(b, first, last)
	}
	return c
}

// profile is a handle's unit costs, measured once on its own relations
// (measureProfile): nanoseconds of one worker per reference for each
// step of a join, and per join for its fixed costs. The arena's page
// faults and its teardown are the kernel's, one page at a time whatever
// the pool: touch and arena are serial. Both price a cold arena, the one
// a handle's first staging join creates; a warm join reuses its
// handle's and pays neither, which Explain does not yet discount.
type profile struct {
	resident  float64 // scan a resident reference, then gather and fold it
	stage     float64 // scan a staged reference, then claim and write its slot
	probe     float64 // nested loops' finish: gather and fold in R's order
	window    float64 // orderProbe's finish of an extent inside one S window
	partition float64 // move a reference in an in-place partition pass
	descent   float64 // index-nl: descend S's B-tree for a reference
	posting   float64 // index-merge: join a pair through the leaf chains
	touch     float64 // fault in, then drop, a staged reference's cold arena bytes
	arena     float64 // create, map and unlink a cold arena, then unmap it
	join      float64 // a join's pool round trip
}

// predict prices p on a pool of workers: the per-reference work spreads
// over the workers, the serial costs do not.
func (pr *profile) predict(p Plan, workers int) int64 {
	n := float64(p.Resident + p.Staged)
	serial, work := pr.join, 0.0
	switch p.Algorithm {
	case join.IndexNL:
		work = n * (pr.resident + pr.descent)
	case join.IndexMerge:
		work = n * pr.posting
	default:
		finish := pr.window
		if p.Algorithm == join.NestedLoops {
			finish = pr.probe
		}
		work = float64(p.Resident)*pr.resident +
			float64(p.Staged)*(pr.stage+finish) + float64(p.Moves)*pr.partition
		if p.Staged > 0 {
			serial += pr.arena + float64(p.Staged)*pr.touch
		}
	}
	return int64(work/float64(workers) + serial)
}

// profile returns the handle's unit costs, measuring them on the first
// call. Concurrent first callers wait on the one measurement; one its
// context stops caches nothing, so the next call measures again.
func (db *DB) profile(ctx context.Context, p *exec.Pool, tmpDir string) (*profile, error) {
	db.profMu.Lock()
	defer db.profMu.Unlock()
	if db.prof == nil {
		db.profPasses++
		pr, err := measureProfile(ctx, db, p, tmpDir)
		if err != nil {
			return nil, err
		}
		db.prof = pr
	}
	return db.prof, nil
}

// fixedTries is how many times the profile times each fixed cost, which
// keeps the least: a fixed cost is a few system calls, and the first try
// pays for warming paths that no later join pays for again.
const fixedTries = 2

// sampleObjs is how many R objects of each partition the profile reads:
// its first two morsels.
const sampleObjs = 2 * morselObjs

// sampleThird names third t of the profile's sample: the R objects
// [lo, hi) it reads of partition Ri.
func sampleThird(db *DB, t int) func(i int) (int, int) {
	return func(i int) (int, int) {
		s := min(db.R[i].Count(), sampleObjs)
		return t * s / 3, (t + 1) * s / 3
	}
}

// descents caps the B-tree descents the profile times.
const descents = 1024

// pageRefs is how many references one 4 KiB arena page holds.
const pageRefs = 4096 / int(refBytes)

// measureProfile times a join's own code — the staging scan, the two
// finishes, the partition pass, the index kernels — on one worker over a
// sample of the handle's own references: the first sampleObjs objects of
// every R partition, in thirds. Every step runs once, on references no
// step before it has read, so none finds S lines a repetition left in
// the cache: the first third joins resident; the second stages into one
// extent per S partition, as nested loops' rows lie, and is probed in
// that order, then partitioned; the third stages into one extent per S
// window and is finished by orderProbe. S is entered into the page table
// first, as a join leaves it. The arenas live in tmpDir, or the store's
// directory when it is "".
func measureProfile(ctx context.Context, db *DB, p *exec.Pool, tmpDir string) (*profile, error) {
	pr := &profile{join: math.Inf(1), arena: math.Inf(1)}
	var clock time.Time
	lap := func(n int) float64 {
		now := time.Now()
		ns := float64(now.Sub(clock))
		clock = now
		return ns / float64(max(n, 1))
	}

	one := exec.NewPool(1)
	defer one.Close()
	r := newJoinRun(ctx, db, one, nil, tmpDir)
	defer r.tmp.close()

	// The fixed costs: a join's pool round trip, and a cold arena's life
	// — create, map, unlink, unmap — drawn from and released through an
	// empty set, empty and at the sample's size with every page faulted
	// in, which prices a page.
	n := 0
	for _, ri := range db.R {
		n += min(ri.Count(), sampleObjs) / 3
	}
	full := math.Inf(1)
	for range fixedTries {
		clock = time.Now()
		if err := p.Run(ctx, []exec.Task{func(int) error { return nil }}); err != nil {
			return nil, err
		}
		pr.join = min(pr.join, lap(1))
		for _, size := range []int{1, n + pageRefs} {
			var cold arenaSet
			a := tempArena{set: &cold, dir: r.tmp.dir, tel: &JoinTelemetry{}}
			if err := a.open(size); err != nil {
				return nil, err
			}
			for x := 0; x < size; x += pageRefs {
				a.refs[x] = ref{}
			}
			a.close()
			cold.close()
			if size == 1 {
				pr.arena = min(pr.arena, lap(1))
			} else {
				full = min(full, lap(1))
			}
		}
	}
	pr.touch = max(full-pr.arena, 0) / float64(n+pageRefs-1)
	for _, rel := range db.S {
		rel.populate()
	}

	scanThird := func(cfg staging, t int) (int, error) {
		sc, scanned, span := r.newScan(cfg), 0, sampleThird(db, t)
		for i := range db.R {
			lo, hi := span(i)
			if err := sc.morsel(0, i, lo, hi); err != nil {
				return 0, err
			}
			scanned += hi - lo
		}
		return scanned, sc.settled()
	}
	// Count every third's histogram before anything is timed, and lay
	// the staged thirds out from their own: each third's R objects are
	// then where a join finds R, read a while ago.
	var thirds [3]*refHist
	var err error
	for t := range thirds {
		if thirds[t], err = countHist(ctx, db, one, sampleThird(db, t)); err != nil {
			return nil, err
		}
	}
	floor, rows, windows := db.floor(), thirds[1].grace(1), thirds[2].windows(r.windowBits)
	// stage opens cfg's arena, faults it in (the faults are priced as
	// touch) and scans third t into it, timing the scan.
	var stageNs float64
	stage := func(cfg staging, t int) (int, error) {
		if err := r.tmp.open(cfg.starts[len(cfg.starts)-1]); err != nil {
			return 0, err
		}
		for x := 0; x < len(r.tmp.refs); x += pageRefs {
			r.tmp.refs[x] = ref{}
		}
		clock = time.Now()
		n, err := scanThird(cfg, t)
		stageNs += lap(0)
		return n, err
	}

	clock = time.Now()
	nA, err := scanThird(floor, 0)
	if err != nil {
		return nil, err
	}
	pr.resident = lap(nA)

	nB, err := stage(rows, 1)
	if err != nil {
		return nil, err
	}
	st := &r.stats[0].JoinStats
	for j := range db.D {
		r.kern.joinRefs(j, r.tmp.refs[rows.starts[j]:rows.starts[j+1]], st)
	}
	pr.probe = lap(nB)
	for j, g := range thirds[1].geo {
		ext := r.tmp.refs[rows.starts[j]:rows.starts[j+1]]
		shift := max(bits.Len64(g.span)-params.Bits, 0)
		class := func(e ref) int { return int(uint64(e.off-g.base) >> shift) }
		bounds := make([]int, int(g.span>>shift)+2)
		for _, e := range ext {
			bounds[class(e)+1]++
		}
		prefixSums(bounds)
		partition(ext, bounds, class)
	}
	pr.partition = lap(nB)
	r.tmp.close()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The window finishes run as tasks of one job on the one worker, as a
	// join's finishes do: an extent past a morsel probes through further
	// tasks (scanProbe), which must not race the next extent's probe.
	nC, err := stage(windows, 2)
	if err != nil {
		return nil, err
	}
	r.jb = one.Begin(ctx)
	s := &stagedRun{joinRun: r, staging: windows}
	for j := range db.D {
		for b := range windows.k {
			if lo, hi := windows.starts[j*windows.k+b], windows.starts[j*windows.k+b+1]; lo < hi {
				s.add(func(w int) error { return s.orderProbe(w, j, r.tmp.refs[lo:hi]) })
			}
		}
	}
	if err := r.jb.Wait(); err != nil {
		return nil, err
	}
	pr.window = lap(nC)
	pr.stage = stageNs / float64(max(nB+nC, 1))
	if got, want := r.stats.total().Pairs, int64(nA+nB+nC); got != want {
		return nil, fmt.Errorf("mstore: the profile joined %d of its %d sampled references", got, want)
	}

	// The index joins' own steps, on an indexed store: B-tree descents for
	// part of the third sample, and the leaf-chain merge of a quarter
	// morsel of every S partition with the R partition of the same number.
	if db.HasIndexes() {
		step, m := max(nC/descents, 1), 0
		for j := range db.D {
			for _, e := range r.tmp.refs[windows.starts[j*windows.k]:windows.starts[(j+1)*windows.k]] {
				if m++; m%step != 0 {
					continue
				}
				key, err := db.indexKeyOf(SPtr{Part: uint32(j), Off: e.off})
				if err != nil {
					return nil, err
				}
				if _, ok := db.sidx[j].Get(key); !ok {
					return nil, fmt.Errorf("mstore: key %d missing from S%d index", key, j)
				}
			}
		}
		pr.descent = lap(m / step)
		var merged JoinStats
		for i := range db.D {
			if hi := min(db.S[i].Count(), morselObjs/4); hi > 0 {
				if err := r.kern.mergeCell(db, i, i, 0, hi, &merged); err != nil {
					return nil, err
				}
			}
		}
		pr.posting = lap(int(merged.Pairs))
	}
	return pr, nil
}

// windows configures one bucket per 2^windowBits bytes of each S
// partition, every reference staged, each extent finished by orderProbe.
func (h *refHist) windows(windowBits int) staging {
	tables, k := make([][]int32, h.d), 1
	for j, g := range h.geo {
		t := make([]int32, g.cells())
		for c := range t {
			t[c] = int32(uint64(c) << g.shift >> windowBits)
			k = max(k, int(t[c])+1)
		}
		tables[j] = t
	}
	cfg := h.byCell(k, tables)
	cfg.finish = (*stagedRun).orderProbe
	return cfg
}
