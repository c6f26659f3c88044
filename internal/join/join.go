// Package join implements the paper's three parallel pointer-based join
// algorithms — nested loops, sort-merge, and the Grace variant — executing
// on the simulated memory-mapped machine. The paper states them as one
// shape (sort-merge's passes 0 and 1 "are the nested-loops partitioning
// passes except that all objects are written out", Grace's hash into K
// ordered buckets), and so does the code: partitionJoin runs the two
// partitioning passes and each algorithm is a passes value saying where a
// reference goes and what happens to RSi afterwards.
//
// The algorithms never issue explicit I/O: they touch mapped addresses and
// all disk traffic arises from page faults and page replacement in the
// per-process pagers, exactly as in the paper's single-level store. Each
// partition Ri is driven by a process Rproci; each Si is served by a
// process Sproci that dereferences join attributes and places S objects in
// shared memory, with requests grouped through a buffer of size G to
// amortize context switches.
package join

import (
	"fmt"

	"mmjoin/internal/disk"
	"mmjoin/internal/machine"
	"mmjoin/internal/metrics"
	"mmjoin/internal/pheap"
	"mmjoin/internal/relation"
	"mmjoin/internal/seg"
	"mmjoin/internal/sim"
	"mmjoin/internal/vm"
)

// Algorithm selects a join algorithm.
type Algorithm int

// Auto is a sentinel, not a runnable algorithm: it asks a planning
// front-end (the query service, or the shard router's per-shard
// planner) to choose among the runnable algorithms per execution.
// Request.Validate and the executors reject it.
const Auto Algorithm = -1

const (
	// NestedLoops is the parallel pointer-based nested loops join (§5).
	NestedLoops Algorithm = iota
	// SortMerge is the parallel pointer-based sort-merge join (§6).
	SortMerge
	// Grace is the parallel pointer-based Grace join variant (§7).
	Grace
	// HybridHash is a parallel pointer-based hybrid-hash join, the
	// extension the paper defers to future work: Grace plus a resident
	// range of S joined immediately during the partitioning passes.
	HybridHash
	// TraditionalGrace is a conventional value-based parallel Grace hash
	// join: the join attribute is an opaque key, S is not clustered on
	// it, and so both relations must be hash-partitioned — the baseline
	// quantifying what the pointer attribute saves.
	TraditionalGrace
	// IndexNL is the index-nested-loop join over the real store's
	// persistent per-partition B-trees: each R object's join attribute
	// probes S's index by a root-to-leaf descent, no transient probe
	// state. Real-store only (mstore); the simulator has no indexes.
	IndexNL
	// IndexMerge is the sorted-range merge join over the same indexes:
	// both sides' leaf chains are zipped partition-locally, MPSM-style,
	// with no global merge barrier. Real-store only (mstore).
	IndexMerge
)

func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case NestedLoops:
		return "nested-loops"
	case SortMerge:
		return "sort-merge"
	case Grace:
		return "grace"
	case HybridHash:
		return "hybrid-hash"
	case TraditionalGrace:
		return "traditional-grace"
	case IndexNL:
		return "index-nl"
	case IndexMerge:
		return "index-merge"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Params configures one join execution.
type Params struct {
	Workload *relation.Workload

	MRproc int64 // private memory per Rproc and per Sproc, bytes
	G      int64 // shared request buffer size, bytes; 0 ⇒ one page

	// Stagger enables the phase offsets of pass 1 that eliminate disk
	// contention (§5.1). Disabling it yields the naive parallel variant
	// in which every Rproc walks the S partitions in the same order.
	Stagger bool
	// SyncPhases inserts a barrier after every pass-1 phase. Nested
	// loops runs unsynchronized by default (the paper measured ≤ 0.5%
	// difference); sort-merge and Grace always synchronize.
	SyncPhases bool

	// Sort-merge's merge fan-ins; zero values select the paper's rules
	// (NRUNABL = M/3B, NRUNLAST = M/2B; params.Runs). IRUN is always
	// M/(r+hp).
	NRunABL, NRunLast int

	// K is the Grace and hybrid-hash bucket count; zero selects
	// K = ⌈Fuzz·(1−f0)·|RSi|·r / M⌉ (params.Buckets, f0 = 0 for Grace).
	// TSIZE is always ≈ bucket objects / 4 (params.TableSize).
	K int

	// Policy selects the pagers' replacement algorithm. The default LRU
	// approximates a mature Unix pager; FIFO approximates the "simple"
	// Dynix replacement of the paper's testbed and thrashes earlier.
	Policy vm.Policy

	// Metrics, when non-nil, receives the run's telemetry: disk and pager
	// gauges sampled every MetricsTick of virtual time, plus each
	// process's phase events (trace.Render draws them). MetricsTick 0
	// selects metrics.DefaultTick.
	Metrics     *metrics.Registry
	MetricsTick sim.Time
}

// withDefaults fills derived defaults in place.
func (prm *Params) withDefaults(cfg machine.Config) error {
	if prm.Workload == nil {
		return fmt.Errorf("join: nil workload")
	}
	if prm.Workload.Spec.D != cfg.D {
		return fmt.Errorf("join: workload D=%d but machine D=%d", prm.Workload.Spec.D, cfg.D)
	}
	if prm.MRproc < int64(cfg.B()) {
		return fmt.Errorf("join: MRproc=%d smaller than one page (%d)", prm.MRproc, cfg.B())
	}
	if prm.G == 0 {
		prm.G = int64(cfg.B())
	}
	return nil
}

// PhaseTime records when a named pass completed (max over Rprocs) and
// the machine-wide cumulative I/O at that point.
type PhaseTime struct {
	Name   string
	End    sim.Time
	Reads  int64 // cumulative disk reads when the last Rproc finished the pass
	Writes int64
}

// Result reports one join execution.
type Result struct {
	Algorithm Algorithm
	Elapsed   sim.Time   // completion time of the slowest Rproc
	PerProc   []sim.Time // per-Rproc completion times
	Phases    []PhaseTime

	Pairs     int64  // joined pairs produced
	Signature uint64 // order-independent join signature (sum of pair hashes)

	DiskReads, DiskWrites int64
	Faults, ZeroFills     int64
	DirtyEvicts           int64
	ContextSwitches       int64
	Heap                  pheap.Costs

	// Disk is the machine-wide disk accounting (seek, rotation, transfer,
	// and overhead service-time components, stall count).
	Disk disk.Stats
	// ReserveClamped counts vm.Reserve calls that were granted fewer
	// frames than requested (the run still completes, but memory-resident
	// structures were sized below the algorithm's plan).
	ReserveClamped int64

	// Parameter choices actually used (algorithm dependent; zero if n/a).
	IRun, NPass, LRun int
	K, TSize          int
}

// CheckInvariants verifies the conservation laws every execution must
// satisfy, regardless of algorithm, memory budget, policy, or reference
// distribution; the conformance suite asserts it across randomized
// configurations. Checked: the join output matches the workload's
// reference in-memory join (cardinality and order-independent
// signature); Elapsed is the maximum per-Rproc completion time; phase
// completion times and their I/O snapshots are within the run's totals;
// the disk accounting conserves (components sum to ServiceSum) and
// matches the read/write counters; and pager fault accounting is
// bounded by the disk (every non-zero-fill fault is a disk read, but
// the machine also reads outside the pagers, so faults − zero fills ≤
// disk reads).
func (r *Result) CheckInvariants(w *relation.Workload) error {
	wantSig, wantPairs := w.JoinSignature()
	if r.Pairs != wantPairs {
		return fmt.Errorf("join: %v produced %d pairs, reference join has %d",
			r.Algorithm, r.Pairs, wantPairs)
	}
	if r.Signature != wantSig {
		return fmt.Errorf("join: %v signature %#x != reference %#x",
			r.Algorithm, r.Signature, wantSig)
	}
	if len(r.PerProc) != w.Spec.D {
		return fmt.Errorf("join: %d per-proc times for D=%d", len(r.PerProc), w.Spec.D)
	}
	max := sim.Time(0)
	for i, t := range r.PerProc {
		if t <= 0 {
			return fmt.Errorf("join: Rproc%d completion %v not positive", i, t)
		}
		if t > max {
			max = t
		}
	}
	if r.Elapsed != max {
		return fmt.Errorf("join: Elapsed %v != max per-proc %v", r.Elapsed, max)
	}
	prev := PhaseTime{}
	for _, ph := range r.Phases {
		if ph.End < prev.End || ph.End > r.Elapsed {
			return fmt.Errorf("join: phase %q ends at %v outside [%v, %v]",
				ph.Name, ph.End, prev.End, r.Elapsed)
		}
		if ph.Reads < prev.Reads || ph.Reads > r.DiskReads ||
			ph.Writes < prev.Writes || ph.Writes > r.DiskWrites {
			return fmt.Errorf("join: phase %q I/O snapshot (%d r, %d w) not monotone within totals (%d r, %d w)",
				ph.Name, ph.Reads, ph.Writes, r.DiskReads, r.DiskWrites)
		}
		prev = ph
	}
	if err := r.Disk.CheckConservation(); err != nil {
		return fmt.Errorf("join: %v: %w", r.Algorithm, err)
	}
	if r.DiskReads != r.Disk.Reads || r.DiskWrites != r.Disk.Writes {
		return fmt.Errorf("join: counters (%d r, %d w) disagree with disk stats (%d r, %d w)",
			r.DiskReads, r.DiskWrites, r.Disk.Reads, r.Disk.Writes)
	}
	if r.Faults < 0 || r.ZeroFills < 0 || r.Faults < r.ZeroFills {
		return fmt.Errorf("join: fault accounting broken (faults %d, zero fills %d)",
			r.Faults, r.ZeroFills)
	}
	if r.Faults-r.ZeroFills > r.DiskReads {
		return fmt.Errorf("join: faults %d − zero fills %d exceed disk reads %d",
			r.Faults, r.ZeroFills, r.DiskReads)
	}
	return nil
}

// runner holds the shared state of one execution. The simulation kernel
// runs exactly one process at a time, so plain fields are safe.
type runner struct {
	m   *machine.Machine
	w   *relation.Workload
	prm Params
	d   int
	b   int64 // page size
	r   int64 // R object size
	s   int64 // S object size
	ptr int64 // S-pointer size

	segR, segS []*seg.Segment
	sReq       []*sim.Chan // request channel per Sproc

	rDone   int
	allRd   *sim.Cond
	phases  map[string]sim.Time
	phaseIO map[string][2]int64

	res Result
}

func newRunner(m *machine.Machine, prm Params) *runner {
	w := prm.Workload
	r := &runner{
		m: m, w: w, prm: prm,
		d:       w.Spec.D,
		b:       int64(m.Cfg.B()),
		r:       int64(w.Spec.RSize),
		s:       int64(w.Spec.SSize),
		ptr:     int64(w.Spec.PtrSize),
		allRd:   sim.NewCond("all-rprocs-done"),
		phases:  make(map[string]sim.Time),
		phaseIO: make(map[string][2]int64),
	}
	r.res.PerProc = make([]sim.Time, r.d)
	// The relations pre-exist on disk: Ri then Si at the start of each
	// drive, matching the paper's layout diagrams.
	for i := 0; i < r.d; i++ {
		r.segR = append(r.segR, m.Mgr[i].Preexisting(fmt.Sprintf("R%d", i), w.BytesR(i)))
		r.segS = append(r.segS, m.Mgr[i].Preexisting(fmt.Sprintf("S%d", i), w.BytesS(i)))
		r.sReq = append(r.sReq, sim.NewChan(fmt.Sprintf("sreq%d", i), 0))
	}
	return r
}

// gCap returns the number of (R object, pointer, S object) triples that
// fit in the shared buffer of size G.
func (r *runner) gCap() int {
	n := int(r.prm.G / (r.r + r.ptr + r.s))
	if n < 1 {
		n = 1
	}
	return n
}

// sRequest asks an Sproc to dereference a batch of join attributes and
// stage the S objects in shared memory.
type sRequest struct {
	ptrs  []relation.SPtr
	reply *sim.Chan
}

// newPager creates a pager with the run's replacement policy and attaches
// it to the metrics registry (a no-op when none is configured).
func (r *runner) newPager(name string, quota int64) *vm.Pager {
	pg := vm.NewWithPolicy(name, frames(quota, r.b), r.prm.Policy)
	pg.Instrument(r.prm.Metrics)
	return pg
}

// reserve pins frames for a memory-resident structure, recording whether
// the grant was clamped below the request, and returns the granted count
// (which is what must later be passed to Unreserve).
func (r *runner) reserve(p *sim.Proc, pg *vm.Pager, want int) int {
	granted := pg.Reserve(p, want)
	if granted < want {
		r.res.ReserveClamped++
	}
	return granted
}

// spawnSprocs starts the D S-partition server processes.
func (r *runner) spawnSprocs() {
	for j := 0; j < r.d; j++ {
		j := j
		pg := r.newPager(fmt.Sprintf("Sproc%d", j), r.prm.MRproc)
		r.m.K.Spawn(fmt.Sprintf("Sproc%d", j), func(p *sim.Proc) {
			for {
				msg := r.sReq[j].Recv(p)
				if msg == nil {
					return
				}
				req := msg.(*sRequest)
				// Dispatching the request costs one context switch.
				p.Advance(r.m.Cfg.CS)
				r.res.ContextSwitches++
				for _, sp := range req.ptrs {
					if int(sp.Part) != j {
						panic(fmt.Sprintf("join: Sproc%d asked for S%d object", j, sp.Part))
					}
					pg.Touch(p, r.segS[j], int64(sp.Index)*r.s, r.s, false)
				}
				// Copy the S objects into the shared buffer.
				p.Advance(r.m.Cfg.TransferPS(int64(len(req.ptrs)) * r.s))
				req.reply.Send(p, struct{}{})
			}
		})
	}
}

// stopSprocs shuts the servers down (called once all Rprocs finished).
func (r *runner) stopSprocs(p *sim.Proc) {
	for j := 0; j < r.d; j++ {
		r.sReq[j].Send(p, nil)
	}
}

// gBuffer groups join requests to one Sproc, flushing when G is full.
type gBuffer struct {
	r     *runner
	owner int // Rproc index (for the signature)
	part  int // target S partition
	reply *sim.Chan
	pend  []pendingJoin
	cap   int
}

type pendingJoin struct {
	x   int32 // R object index within its origin partition
	ri  int32 // origin partition of the R object
	ptr relation.SPtr
}

func (r *runner) newGBuffer(owner, part int) *gBuffer {
	return &gBuffer{
		r: r, owner: owner, part: part,
		reply: sim.NewChan(fmt.Sprintf("reply-r%d-s%d", owner, part), 0),
		cap:   r.gCap(),
	}
}

// add stages one R object and its join attribute in the shared buffer,
// flushing if the buffer fills. The copy into shared memory is paid here
// (the pointer is copied alongside the object so the Sproc need not know
// R's internal structure).
func (g *gBuffer) add(p *sim.Proc, ri, x int32, ptr relation.SPtr) {
	p.Advance(g.r.m.Cfg.TransferPS(g.r.r + g.r.ptr))
	g.pend = append(g.pend, pendingJoin{x: x, ri: ri, ptr: ptr})
	if len(g.pend) >= g.cap {
		g.flush(p)
	}
}

// flush exchanges the buffer with the Sproc and computes the joins.
// The exchange costs two context switches (to the Sproc and back).
func (g *gBuffer) flush(p *sim.Proc) {
	if len(g.pend) == 0 {
		return
	}
	ptrs := make([]relation.SPtr, len(g.pend))
	for i, pj := range g.pend {
		ptrs[i] = pj.ptr
	}
	g.r.sReq[g.part].Send(p, &sRequest{ptrs: ptrs, reply: g.reply})
	g.reply.Recv(p)
	p.Advance(g.r.m.Cfg.CS) // resume after the exchange
	g.r.res.ContextSwitches++
	for _, pj := range g.pend {
		g.r.res.Signature += relation.PairHash(pj.ri, pj.x, pj.ptr)
		g.r.res.Pairs++
	}
	g.pend = g.pend[:0]
}

// frames converts a byte quota to page frames (at least one).
func frames(bytes, b int64) int {
	n := int(bytes / b)
	if n < 1 {
		n = 1
	}
	return n
}

// rprocDone records an Rproc's completion and, from the last one, shuts
// down the servers and the machine.
func (r *runner) rprocDone(p *sim.Proc, i int) {
	r.res.PerProc[i] = p.Now()
	if p.Now() > r.res.Elapsed {
		r.res.Elapsed = p.Now()
	}
	r.rDone++
	if r.rDone == r.d {
		r.stopSprocs(p)
		r.collectStats()
		r.m.Shutdown(p)
	}
}

// markPhase records the latest completion time of a named pass and, when
// a registry is attached, the per-process event.
func (r *runner) markPhase(p *sim.Proc, name string) {
	if p.Now() > r.phases[name] {
		r.phases[name] = p.Now()
		ds := r.m.DiskStats()
		r.phaseIO[name] = [2]int64{ds.Reads, ds.Writes}
	}
	r.prm.Metrics.Event(p.Now(), p.Name(), name)
}

func (r *runner) finishPhases(order []string) {
	for _, name := range order {
		if end, ok := r.phases[name]; ok {
			io := r.phaseIO[name]
			r.res.Phases = append(r.res.Phases, PhaseTime{
				Name: name, End: end, Reads: io[0], Writes: io[1],
			})
		}
	}
}

// collectStats folds disk counters into the result (pager stats are added
// by each algorithm as its pagers retire).
func (r *runner) collectStats() {
	ds := r.m.DiskStats()
	r.res.DiskReads = ds.Reads
	r.res.DiskWrites = ds.Writes
	r.res.Disk = ds
}

// addPagerStats accumulates a pager's counters into the result.
func (r *runner) addPagerStats(pg *vm.Pager) {
	st := pg.Stats()
	r.res.Faults += st.Faults
	r.res.ZeroFills += st.ZeroFills
	r.res.DirtyEvicts += st.DirtyEvicts
}

// subLayout computes, for Rproc i, the byte offset of each RPi,j
// sub-partition within the RPi temporary segment (j == i unused) and the
// segment's total size.
func (r *runner) subLayout(i int, counts [][]int) (offsets []int64, total int64) {
	offsets = make([]int64, r.d)
	for j := 0; j < r.d; j++ {
		if j == i {
			offsets[j] = -1
			continue
		}
		offsets[j] = total
		total += int64(counts[i][j]) * r.r
	}
	if total == 0 {
		total = 1 // keep segments non-empty
	}
	return offsets, total
}
