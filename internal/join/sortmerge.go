package join

import (
	"fmt"

	"mmjoin/internal/params"
	"mmjoin/internal/pheap"
	"mmjoin/internal/seg"
	"mmjoin/internal/sim"
	"mmjoin/internal/vm"
)

// runSortMerge executes the parallel pointer-based sort-merge join (§6).
// Passes 0 and 1 are the nested-loops partitioning passes except that all
// objects are written out: Ri,i and every RPi,j land in RSj, the set of R
// objects referencing Sj, staggered and synchronized per phase. Each RSi
// is then sorted by the S-pointer with a multi-way merge sort (runs of
// IRUN objects, fan-in NRUN), and the final merge pass reads Si
// sequentially to compute the join.
func (r *runner) runSortMerge() {
	// Shared append state of the RSj partitions (one writer at a time
	// thanks to the staggered, synchronized phases).
	rsObjs := make([][]pendingJoin, r.d)
	mergeSeg := make([]*seg.Segment, r.d)
	r.partitionJoin(passes{
		barrier: "sm-phase",
		rsObjs:  r.w.RSCounts(),
		setup: func(rp *rproc) {
			mergeSeg[rp.i] = rp.mgr.NewMap(rp.p, fmt.Sprintf("Merge%d", rp.i), rp.rs[rp.i].Bytes())
		},
		// RSj is mapped into Rproci's private memory, so the move is a
		// private-to-private transfer.
		place: func(rp *rproc, j int, pj pendingJoin, _ *gBuffer, owed sim.Time) {
			rp.p.Advance(owed + r.m.Cfg.TransferPP(r.r))
			rp.pg.Touch(rp.p, rp.rs[j], int64(len(rsObjs[j]))*r.r, r.r, true)
			rsObjs[j] = append(rsObjs[j], pj)
		},
		finish: func(rp *rproc) { r.sortRS(rp, rsObjs[rp.i], mergeSeg[rp.i]) },
		phases: []string{"pass2", "merge", "join"},
	})
}

// sortRS sorts the completed RSi and joins it with Si: pass 2 heap-sorts
// runs of IRUN objects, the merge passes alternate RSi and Mergei until
// at most NRUNLAST runs remain, and the final merge joins.
func (r *runner) sortRS(rp *rproc, rsObjs []pendingJoin, mergeSeg *seg.Segment) {
	p, pg, mgr, i := rp.p, rp.pg, rp.mgr, rp.i
	rsSeg := rp.rs[i]

	// Pass 2: heap-sort runs of IRUN objects in place.
	n := len(rsObjs)
	irun, nrunABL, nrunLast := params.Runs(r.prm.NRunABL, r.prm.NRunLast,
		r.prm.MRproc, r.r, int64(r.m.Cfg.HeapPtrBytes), r.b)
	if irun > r.res.IRun {
		r.res.IRun = irun
	}

	// The heap of pointers is memory-resident alongside the run.
	heapFrames := int((int64(irun)*int64(r.m.Cfg.HeapPtrBytes) + r.b - 1) / r.b)
	var runs []int // run start indices (end = next start or n)
	for start := 0; start < n; start += irun {
		end := start + irun
		if end > n {
			end = n
		}
		runs = append(runs, start)
		granted := r.reserve(p, pg, heapFrames)
		pg.Touch(p, rsSeg, int64(start)*r.r, int64(end-start)*r.r, false)
		seq := rsObjs[start:end]
		handles := make([]int32, end-start)
		for h := range handles {
			handles[h] = int32(h)
		}
		costs := pheap.Sort(handles, func(a, b int32) bool {
			return seq[a].ptr.Less(seq[b].ptr)
		})
		r.res.Heap.Add(costs)
		// Charge the heap work plus the in-place move of the
		// R-objects along the sorted pointer list.
		p.Advance(r.heapTime(costs) + r.m.Cfg.TransferPP(int64(end-start)*r.r))
		applyPermutation(seq, handles)
		pg.Touch(p, rsSeg, int64(start)*r.r, int64(end-start)*r.r, true)
		pg.Unreserve(granted)
	}
	if n == 0 {
		runs = nil
	}
	r.markPhase(p, "pass2")

	// Merge passes: groups of NRUNABL runs, alternating RSi and
	// Mergei as source and destination, until at most NRUNLAST
	// runs remain for the final joining merge.
	src, dst := rsSeg, mergeSeg
	srcObjs := rsObjs
	mkEnds := func(starts []int, total int) []int {
		ends := make([]int, len(starts))
		for k := range starts {
			if k+1 < len(starts) {
				ends[k] = starts[k+1]
			} else {
				ends[k] = total
			}
		}
		return ends
	}
	npass := 1 // the final merge always happens
	for len(runs) > nrunLast {
		npass++
		allEnds := mkEnds(runs, len(srcObjs))
		dstObjs := make([]pendingJoin, 0, n)
		var dstRuns []int
		for g := 0; g < len(runs); g += nrunABL {
			hi := g + nrunABL
			if hi > len(runs) {
				hi = len(runs)
			}
			dstRuns = append(dstRuns, len(dstObjs))
			r.mergeRuns(p, pg, src, srcObjs, runs[g:hi], allEnds[g:hi], func(obj pendingJoin) {
				pg.Touch(p, dst, int64(len(dstObjs))*r.r, r.r, true)
				p.Advance(r.m.Cfg.TransferPP(r.r))
				dstObjs = append(dstObjs, obj)
			})
		}
		pg.FlushSegment(p, dst)
		// Swap roles: destroy the exhausted source, make a fresh
		// destination (the paper's deleteMap+newMap per pass).
		pg.DropSegment(src)
		mgr.DeleteMap(p, src)
		src, srcObjs, runs = dst, dstObjs, dstRuns
		dst = mgr.NewMap(p, fmt.Sprintf("Merge%d.%d", i, npass), rsSeg.Bytes())
	}
	r.markPhase(p, "merge")

	// Final pass: merge the last LRUN runs, joining each object
	// with Si read sequentially through the shared buffer.
	if npass > r.res.NPass {
		r.res.NPass = npass
	}
	if len(runs) > r.res.LRun {
		r.res.LRun = len(runs)
	}
	gbuf := r.newGBuffer(i, i)
	r.mergeRuns(p, pg, src, srcObjs, runs, mkEnds(runs, len(srcObjs)), func(obj pendingJoin) {
		gbuf.add(p, obj.ri, obj.x, obj.ptr)
	})
	gbuf.flush(p)
	r.markPhase(p, "join")
}

// mergeRuns merges the runs of srcObjs delimited by starts/ends using a
// delete-insert heap of one cursor per run, emitting objects in S-pointer
// order.
func (r *runner) mergeRuns(p *sim.Proc, pg *vm.Pager, src *seg.Segment,
	srcObjs []pendingJoin, starts, ends []int, emit func(pendingJoin)) {
	if len(starts) == 0 {
		return
	}
	cursors := append([]int(nil), starts...)
	touchCursor := func(k int) {
		pg.Touch(p, src, int64(cursors[k])*r.r, r.r, false)
	}
	less := func(a, b int32) bool {
		return srcObjs[cursors[a]].ptr.Less(srcObjs[cursors[b]].ptr)
	}
	var live []int32
	for k := range starts {
		if cursors[k] < ends[k] {
			touchCursor(k)
			live = append(live, int32(k))
		}
	}
	h := pheap.NewFloyd(live, less)
	before := h.Costs()
	for h.Len() > 0 {
		k := int(h.Min())
		obj := srcObjs[cursors[k]]
		cursors[k]++
		var costs pheap.Costs
		if cursors[k] < ends[k] {
			touchCursor(k)
			h.ReplaceMin(int32(k))
			costs = h.Costs()
		} else {
			h.DeleteMin()
			costs = h.Costs()
		}
		delta := pheap.Costs{
			Compares:  costs.Compares - before.Compares,
			Swaps:     costs.Swaps - before.Swaps,
			Transfers: costs.Transfers - before.Transfers,
		}
		before = costs
		r.res.Heap.Add(delta)
		p.Advance(r.heapTime(delta))
		emit(obj)
	}
}

// heapTime converts heap operation counts to CPU time at the machine's
// measured per-operation costs.
func (r *runner) heapTime(c pheap.Costs) sim.Time {
	return sim.Time(c.Compares)*r.m.Cfg.CompareCost +
		sim.Time(c.Swaps)*r.m.Cfg.SwapCost +
		sim.Time(c.Transfers)*r.m.Cfg.TransferCost
}

// applyPermutation reorders seq so that seq[i] = old seq[perm[i]].
func applyPermutation(seq []pendingJoin, perm []int32) {
	out := make([]pendingJoin, len(seq))
	for i, h := range perm {
		out[i] = seq[h]
	}
	copy(seq, out)
}
