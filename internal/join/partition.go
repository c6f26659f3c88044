package join

import (
	"fmt"

	"mmjoin/internal/seg"
	"mmjoin/internal/sim"
	"mmjoin/internal/vm"
)

// passes is what one pointer join adds to the partitioning passes that
// nested loops, sort-merge, Grace and hybrid hash share (§5–§7).
type passes struct {
	// barrier names the barrier the Rprocs meet at. An algorithm with an
	// RS waits after setup, after each pass and after each pass-1 phase,
	// because Rprocs append to each other's RSj; one without (nested
	// loops) waits only after each phase, and only under
	// Params.SyncPhases.
	barrier string
	// rsObjs[i] is the number of R objects RSi will hold; nil means the
	// algorithm has no RS.
	rsObjs []int
	// setup creates the algorithm's further temporaries, after RSi and
	// RPi on the same disk. May be nil.
	setup func(rp *rproc)
	// place disposes of one R object whose join attribute points into Sj:
	// in pass 0 (j == rp.i) fresh from the Ri scan, in pass 1 read back
	// from RPi,j. It joins through g, Rproc i's request buffer to Sprocj,
	// or writes into RSj. owed is CPU time the skeleton has incurred for
	// the object but not charged — the pointer's partition mapping in
	// pass 0, nothing in pass 1 — and place adds it to its own first
	// Advance: splitting or merging Advance calls reorders simultaneous
	// events, so each reference costs exactly the calls it always did.
	place func(rp *rproc, j int, pj pendingJoin, g *gBuffer, owed sim.Time)
	// finish runs the algorithm's passes over the completed RSi, marking
	// each of phases in order. May be nil.
	finish func(rp *rproc)
	phases []string
}

// rproc is the private state of Rproc i that the hooks of a passes value
// work with.
type rproc struct {
	p   *sim.Proc
	pg  *vm.Pager
	mgr *seg.Manager
	i   int
	rs  []*seg.Segment // RSj of every partition, complete after the setup barrier
}

// partitionJoin runs a pointer join: the two partitioning passes, written
// once, then the algorithm's own passes. Pass 0 scans Ri, handing the
// Ri,i objects to a.place and copying the rest into the RPi,j
// sub-partitions of one temporary on the same disk. Pass 1 walks the
// sub-partitions in D−1 phases whose offsets stagger access to the S
// partitions so that, absent skew, each Sj serves one Rproc at a time.
func (r *runner) partitionJoin(a passes) {
	counts := r.w.SubCounts()
	r.spawnSprocs()
	bar := sim.NewBarrier(a.barrier, r.d)
	shared := a.rsObjs != nil
	rs := make([]*seg.Segment, r.d)
	for i := 0; i < r.d; i++ {
		i := i
		r.m.K.Spawn(fmt.Sprintf("Rproc%d", i), func(p *sim.Proc) {
			rp := &rproc{p: p, pg: r.newPager(fmt.Sprintf("Rproc%d", i), r.prm.MRproc),
				mgr: r.m.Mgr[i], i: i, rs: rs}
			pg := rp.pg

			// Setup: map Ri and Si, then create the temporaries after them
			// on the same disk in the paper's layout order — RSi, RPi, the
			// algorithm's own. Mapping manipulation serializes on the
			// system-wide lock, giving the paper's D× setup factor.
			rp.mgr.OpenMap(p, r.segR[i])
			rp.mgr.OpenMap(p, r.segS[i])
			if shared {
				rs[i] = rp.mgr.NewMap(p, fmt.Sprintf("RS%d", i), max(1, int64(a.rsObjs[i])*r.r))
			}
			offsets, total := r.subLayout(i, counts)
			rpSeg := rp.mgr.NewMap(p, fmt.Sprintf("RP%d", i), total)
			if a.setup != nil {
				a.setup(rp)
			}
			r.markPhase(p, "setup")
			if shared {
				bar.Wait(p) // all RSj exist before anyone appends
			}

			// Pass 0: sequential scan of Ri.
			gbuf := r.newGBuffer(i, i)
			rpRefs := make([][]pendingJoin, r.d)
			for x, ptr := range r.w.Refs[i] {
				pg.Touch(p, r.segR[i], int64(x)*r.r, r.r, false)
				pj := pendingJoin{ri: int32(i), x: int32(x), ptr: ptr}
				j := int(ptr.Part)
				if j == i {
					a.place(rp, i, pj, gbuf, r.m.Cfg.MapCost)
					continue
				}
				// Copy the object to its RPi,j sub-partition (a private
				// memory-to-memory move thanks to the combined segment).
				p.Advance(r.m.Cfg.MapCost + r.m.Cfg.TransferPP(r.r))
				pg.Touch(p, rpSeg, offsets[j]+int64(len(rpRefs[j]))*r.r, r.r, true)
				rpRefs[j] = append(rpRefs[j], pj)
			}
			gbuf.flush(p)
			r.markPhase(p, "pass0")
			if shared {
				bar.Wait(p)
			}

			// Pass 1: staggered phases over the remaining sub-partitions.
			for t := 1; t < r.d; t++ {
				j := r.phasePartition(i, t)
				gb := r.newGBuffer(i, j)
				for n, pj := range rpRefs[j] {
					pg.Touch(p, rpSeg, offsets[j]+int64(n)*r.r, r.r, false)
					a.place(rp, j, pj, gb, 0)
				}
				gb.flush(p)
				if shared || r.prm.SyncPhases {
					bar.Wait(p)
				}
			}
			if shared {
				// Hand the foreign RSj pages back to their owners: write
				// out our dirty pages and drop them from our memory.
				for j := 0; j < r.d; j++ {
					if j != i {
						pg.FlushSegment(p, rs[j])
						pg.DropSegment(rs[j])
					}
				}
			}
			r.markPhase(p, "pass1")
			if shared {
				bar.Wait(p)
			}

			if a.finish != nil {
				a.finish(rp)
			}
			r.addPagerStats(pg)
			r.rprocDone(p, i)
		})
	}
	r.m.K.Run()
	r.finishPhases(append([]string{"setup", "pass0", "pass1"}, a.phases...))
}

// phasePartition returns the S partition Rproc i visits in phase t.
// Staggered (the paper's offset(i,t)): partition (i+t) mod D, so no two
// Rprocs share a partition in a phase. Naive: every Rproc walks the
// partitions in the same ascending order, colliding on each one.
func (r *runner) phasePartition(i, t int) int {
	if r.prm.Stagger {
		return (i + t) % r.d
	}
	j := t - 1
	if j >= i {
		j = t
	}
	return j
}
