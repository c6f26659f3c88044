package join

import (
	"fmt"
	"sort"

	"mmjoin/internal/radix"
	"mmjoin/internal/seg"
	"mmjoin/internal/sim"
)

// runGrace executes the parallel pointer-based Grace join variant (§7).
// Passes 0 and 1 are the partitioning passes, but join attributes are
// hashed into one of K clustered buckets per RSi: the hash preserves the
// S-pointer order, so bucket j holds only pointers smaller than any in
// bucket j+1 and Si can be read sequentially across buckets. Pass 1+j
// loads bucket j into a memory-resident hash table of TSIZE chains and
// joins its chains in order against Si through the shared buffer.
func (r *runner) runGrace() {
	counts := r.w.SubCounts()
	rsCounts := r.w.RSCounts()
	r.spawnSprocs()
	bar := sim.NewBarrier("grace-phase", r.d)

	// Choose K so one bucket plus its hash-table overhead fits in
	// MRproc (with the paper's fuzz allowance), unless overridden.
	maxRS := 0
	for _, c := range rsCounts {
		if c > maxRS {
			maxRS = c
		}
	}
	k := r.prm.K
	if k <= 0 {
		need := radix.Fuzz * float64(maxRS) * float64(r.r) / float64(r.prm.MRproc)
		k = int(need)
		if float64(k) < need {
			k++
		}
	}
	if k < 1 {
		k = 1
	}
	if k > maxRS && maxRS > 0 {
		k = maxRS
	}
	r.res.K = k

	tsize := r.prm.TSize
	if tsize <= 0 {
		avgBucket := maxRS / k
		tsize = 16
		for tsize < avgBucket/4 {
			tsize *= 2
		}
	}
	r.res.TSize = tsize

	// The order-preserving first hash: bucket of a pointer into Sj.
	bucketOf := func(ptr int32, j int) int {
		b := int(int64(ptr) * int64(k) / int64(r.w.SizeS(j)))
		if b >= k {
			b = k - 1
		}
		return b
	}

	// Pre-compute bucket sizes (the executable system would size bucket
	// extents from partition statistics; we have them exactly).
	bucketCount := make([][]int, r.d)
	for j := range bucketCount {
		bucketCount[j] = make([]int, k)
	}
	for i := 0; i < r.d; i++ {
		for _, ptr := range r.w.Refs[i] {
			bucketCount[ptr.Part][bucketOf(ptr.Index, int(ptr.Part))]++
		}
	}
	// Bucket start offsets (objects) within each RSj.
	bucketStart := make([][]int64, r.d)
	for j := range bucketStart {
		bucketStart[j] = make([]int64, k+1)
		for b := 0; b < k; b++ {
			bucketStart[j][b+1] = bucketStart[j][b] + int64(bucketCount[j][b])
		}
	}

	type bucketState struct {
		objs [][]pendingJoin // per bucket, arrival order
		cur  []int64         // per bucket appended objects
	}
	rs := make([]*bucketState, r.d)
	rsSegments := make([]*segRef, r.d)
	for j := 0; j < r.d; j++ {
		rs[j] = &bucketState{objs: make([][]pendingJoin, k), cur: make([]int64, k)}
		rsSegments[j] = &segRef{}
	}

	for i := 0; i < r.d; i++ {
		i := i
		r.m.K.Spawn(fmt.Sprintf("Rproc%d", i), func(p *sim.Proc) {
			pg := r.newPager(fmt.Sprintf("Rproc%d", i), r.prm.MRproc)
			mgr := r.m.Mgr[i]

			mgr.OpenMap(p, r.segR[i])
			mgr.OpenMap(p, r.segS[i])
			rsBytes := int64(rsCounts[i]) * r.r
			if rsBytes == 0 {
				rsBytes = 1
			}
			rsSegments[i].s = mgr.NewMap(p, fmt.Sprintf("RS%d", i), rsBytes)
			offsets, total := r.subLayout(i, counts)
			rp := mgr.NewMap(p, fmt.Sprintf("RP%d", i), total)
			r.markPhase(p, "setup")
			bar.Wait(p)

			// writeBucket appends an object to bucket b of RSj.
			writeBucket := func(j int, pj pendingJoin) {
				b := bucketOf(pj.ptr.Index, j)
				off := (bucketStart[j][b] + rs[j].cur[b]) * r.r
				pg.Touch(p, rsSegments[j].s, off, r.r, true)
				rs[j].cur[b]++
				rs[j].objs[b] = append(rs[j].objs[b], pj)
			}

			// Pass 0: scan Ri; hash own references into RSi buckets,
			// sub-partition the rest into RPi,j.
			cursors := make([]int64, r.d)
			rpRefs := make([][]pendingJoin, r.d)
			for x, ptr := range r.w.Refs[i] {
				pg.Touch(p, r.segR[i], int64(x)*r.r, r.r, false)
				j := int(ptr.Part)
				if j == i {
					p.Advance(r.m.Cfg.MapCost + r.m.Cfg.HashCost + r.m.Cfg.TransferPP(r.r))
					writeBucket(i, pendingJoin{ri: int32(i), x: int32(x), ptr: ptr})
					continue
				}
				p.Advance(r.m.Cfg.MapCost + r.m.Cfg.TransferPP(r.r))
				pg.Touch(p, rp, offsets[j]+cursors[j]*r.r, r.r, true)
				cursors[j]++
				rpRefs[j] = append(rpRefs[j], pendingJoin{ri: int32(i), x: int32(x), ptr: ptr})
			}
			r.markPhase(p, "pass0")
			bar.Wait(p)

			// Pass 1: staggered, synchronized phases hash each RPi,j
			// into RSj's buckets.
			for t := 1; t < r.d; t++ {
				j := r.phasePartition(i, t)
				for n, pj := range rpRefs[j] {
					pg.Touch(p, rp, offsets[j]+int64(n)*r.r, r.r, false)
					p.Advance(r.m.Cfg.HashCost + r.m.Cfg.TransferPP(r.r))
					writeBucket(j, pj)
				}
				bar.Wait(p)
			}
			for j := 0; j < r.d; j++ {
				if j != i {
					pg.FlushSegment(p, rsSegments[j].s)
					pg.DropSegment(rsSegments[j].s)
				}
			}
			r.markPhase(p, "pass1")
			bar.Wait(p)

			// Pass 1+b: per bucket, build the TSIZE-chain table in
			// memory and join its chains in order. The second hash also
			// preserves pointer order, so chain order ⇒ ascending S
			// addresses ⇒ (near-)sequential reads of Si.
			for b := 0; b < k; b++ {
				objs := rs[i].objs[b]
				overhead := int64(tsize)*8 + int64(len(objs))*int64(r.m.Cfg.HeapPtrBytes)
				reserve := r.reserve(p, pg, int((overhead+r.b-1)/r.b))
				for n := range objs {
					off := (bucketStart[i][b] + int64(n)) * r.r
					pg.Touch(p, rsSegments[i].s, off, r.r, false)
					p.Advance(r.m.Cfg.HashCost)
				}
				// Chains processed in order: ascending S index.
				order := make([]int, len(objs))
				for n := range order {
					order[n] = n
				}
				sort.SliceStable(order, func(a, c int) bool {
					return objs[order[a]].ptr.Index < objs[order[c]].ptr.Index
				})
				gbuf := r.newGBuffer(i, i)
				for _, n := range order {
					gbuf.add(p, objs[n].ri, objs[n].x, objs[n].ptr)
				}
				gbuf.flush(p)
				pg.Unreserve(reserve)
			}
			r.markPhase(p, "probe")

			r.addPagerStats(pg)
			r.rprocDone(p, i)
		})
	}
	r.m.K.Run()
	r.finishPhases([]string{"setup", "pass0", "pass1", "probe"})
}

// segRef lets Rprocs publish segments created during their setup to the
// other Rprocs (filled before the first barrier).
type segRef struct{ s *seg.Segment }
