package join

import (
	"fmt"
	"sort"

	"mmjoin/internal/radix"
	"mmjoin/internal/sim"
)

// runHybridHash executes a parallel pointer-based hybrid-hash join — the
// third algorithm of Shekita and Carey's pointer-join framework, which
// the paper lists as future work ("more modern hash-based join
// algorithms"). It extends Grace with a resident bucket: join attributes
// pointing into a prefix of each S partition sized to stay cached in the
// Sproc's memory are joined immediately during the partitioning passes
// and never written to RSi; only the remainder is hashed into K ordered
// buckets and probed as in Grace. With ample memory the algorithm
// degenerates to pure immediate joining; with scarce memory it converges
// to Grace.
func (r *runner) runHybridHash() {
	counts := r.w.SubCounts()
	rsCounts := r.w.RSCounts()
	r.spawnSprocs()
	bar := sim.NewBarrier("hh-phase", r.d)

	maxRS := 0
	for _, c := range rsCounts {
		if c > maxRS {
			maxRS = c
		}
	}
	maxS := 0
	for j := 0; j < r.d; j++ {
		if n := r.w.SizeS(j); n > maxS {
			maxS = n
		}
	}

	// Resident fraction: the prefix of each Sj that fits (with headroom)
	// in the Sproc's buffer, so immediate joins against it re-fault
	// rarely.
	f0 := 0.8 * float64(r.prm.MSproc) / (float64(maxS) * float64(r.s))
	if f0 > 1 {
		f0 = 1
	}
	if f0 < 0 {
		f0 = 0
	}
	// Ordered buckets for the overflow portion, Grace-sized.
	k := r.prm.K
	if k <= 0 {
		need := radix.Fuzz * (1 - f0) * float64(maxRS) * float64(r.r) / float64(r.prm.MRproc)
		k = int(need)
		if float64(k) < need {
			k++
		}
	}
	if f0 >= 1 {
		k = 0
	} else if k < 1 {
		k = 1
	}
	r.res.K = k

	tsize := r.prm.TSize
	if tsize <= 0 {
		tsize = 16
		if k > 0 {
			avgBucket := int((1 - f0) * float64(maxRS) / float64(k))
			for tsize < avgBucket/4 {
				tsize *= 2
			}
		}
	}
	r.res.TSize = tsize

	// residentUpTo[j]: S indexes below this join immediately.
	residentUpTo := make([]int32, r.d)
	for j := 0; j < r.d; j++ {
		residentUpTo[j] = int32(f0 * float64(r.w.SizeS(j)))
	}
	bucketOf := func(ptr int32, j int) int {
		lo := residentUpTo[j]
		span := int32(r.w.SizeS(j)) - lo
		if span <= 0 {
			return 0
		}
		b := int(int64(ptr-lo) * int64(k) / int64(span))
		if b >= k {
			b = k - 1
		}
		return b
	}

	// Pre-compute overflow bucket sizes.
	bucketCount := make([][]int, r.d)
	for j := range bucketCount {
		bucketCount[j] = make([]int, k+1)
	}
	for i := 0; i < r.d; i++ {
		for _, ptr := range r.w.Refs[i] {
			if ptr.Index >= residentUpTo[ptr.Part] {
				bucketCount[ptr.Part][bucketOf(ptr.Index, int(ptr.Part))]++
			}
		}
	}
	bucketStart := make([][]int64, r.d)
	overflow := make([]int, r.d)
	for j := range bucketStart {
		bucketStart[j] = make([]int64, k+1)
		for b := 0; b < k; b++ {
			bucketStart[j][b+1] = bucketStart[j][b] + int64(bucketCount[j][b])
			overflow[j] += bucketCount[j][b]
		}
	}

	type bucketState struct {
		objs [][]pendingJoin
		cur  []int64
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
			rsBytes := int64(overflow[i]) * r.r
			if rsBytes == 0 {
				rsBytes = 1
			}
			rsSegments[i].s = mgr.NewMap(p, fmt.Sprintf("RS%d", i), rsBytes)
			offsets, total := r.subLayout(i, counts)
			rp := mgr.NewMap(p, fmt.Sprintf("RP%d", i), total)
			r.markPhase(p, "setup")
			bar.Wait(p)

			writeBucket := func(j int, pj pendingJoin) {
				b := bucketOf(pj.ptr.Index, j)
				off := (bucketStart[j][b] + rs[j].cur[b]) * r.r
				pg.Touch(p, rsSegments[j].s, off, r.r, true)
				rs[j].cur[b]++
				rs[j].objs[b] = append(rs[j].objs[b], pj)
			}

			// Pass 0: resident-range references join immediately; the
			// remainder of the own-partition references is hashed into
			// buckets; foreign references sub-partition as usual.
			gbuf := r.newGBuffer(i, i)
			cursors := make([]int64, r.d)
			rpRefs := make([][]pendingJoin, r.d)
			for x, ptr := range r.w.Refs[i] {
				pg.Touch(p, r.segR[i], int64(x)*r.r, r.r, false)
				j := int(ptr.Part)
				if j == i {
					if ptr.Index < residentUpTo[i] {
						p.Advance(r.m.Cfg.MapCost + r.m.Cfg.HashCost)
						gbuf.add(p, int32(i), int32(x), ptr)
						continue
					}
					p.Advance(r.m.Cfg.MapCost + r.m.Cfg.HashCost + r.m.Cfg.TransferPP(r.r))
					writeBucket(i, pendingJoin{ri: int32(i), x: int32(x), ptr: ptr})
					continue
				}
				p.Advance(r.m.Cfg.MapCost + r.m.Cfg.TransferPP(r.r))
				pg.Touch(p, rp, offsets[j]+cursors[j]*r.r, r.r, true)
				cursors[j]++
				rpRefs[j] = append(rpRefs[j], pendingJoin{ri: int32(i), x: int32(x), ptr: ptr})
			}
			gbuf.flush(p)
			r.markPhase(p, "pass0")
			bar.Wait(p)

			// Pass 1: staggered, synchronized; resident-range references
			// join immediately against Sproc j, the rest hash into RSj.
			for t := 1; t < r.d; t++ {
				j := r.phasePartition(i, t)
				gb := r.newGBuffer(i, j)
				for n, pj := range rpRefs[j] {
					pg.Touch(p, rp, offsets[j]+int64(n)*r.r, r.r, false)
					if pj.ptr.Index < residentUpTo[j] {
						p.Advance(r.m.Cfg.HashCost)
						gb.add(p, pj.ri, pj.x, pj.ptr)
						continue
					}
					p.Advance(r.m.Cfg.HashCost + r.m.Cfg.TransferPP(r.r))
					writeBucket(j, pj)
				}
				gb.flush(p)
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

			// Overflow buckets probed exactly as in Grace.
			for b := 0; b < k; b++ {
				objs := rs[i].objs[b]
				overheadBytes := int64(tsize)*8 + int64(len(objs))*int64(r.m.Cfg.HeapPtrBytes)
				reserve := r.reserve(p, pg, int((overheadBytes+r.b-1)/r.b))
				for n := range objs {
					off := (bucketStart[i][b] + int64(n)) * r.r
					pg.Touch(p, rsSegments[i].s, off, r.r, false)
					p.Advance(r.m.Cfg.HashCost)
				}
				order := make([]int, len(objs))
				for n := range order {
					order[n] = n
				}
				sort.SliceStable(order, func(a, c int) bool {
					return objs[order[a]].ptr.Index < objs[order[c]].ptr.Index
				})
				gb := r.newGBuffer(i, i)
				for _, n := range order {
					gb.add(p, objs[n].ri, objs[n].x, objs[n].ptr)
				}
				gb.flush(p)
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
