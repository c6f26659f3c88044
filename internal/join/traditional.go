package join

import (
	"fmt"

	"mmjoin/internal/params"
	"mmjoin/internal/relation"
	"mmjoin/internal/seg"
	"mmjoin/internal/sim"
)

// runTraditionalGrace executes a conventional (value-based) parallel
// Grace hash join — the comparison the paper's conclusion defers
// ("exploring the applicability of our model to traditional join
// algorithms"). Here the join attribute is an opaque key value and S is
// not clustered on it, so unlike the pointer-based variant BOTH
// relations must be hash-partitioned: R is exchanged and bucketed as in
// the pointer algorithms, and additionally every Si is read, exchanged
// by key ownership, and written into SHj buckets before the per-bucket
// build/probe. The extra handling of S is exactly the work the paper's
// virtual-pointer attribute eliminates.
func (r *runner) runTraditionalGrace() {
	keys := r.w.Keys()
	r.spawnSprocs() // idle here, but keeps lifecycle uniform
	bar := sim.NewBarrier("tg-phase", r.d)

	// Bucket counts: K sized so an S bucket plus its hash table fits.
	maxS := 0
	for j := 0; j < r.d; j++ {
		if n := r.w.SizeS(j); n > maxS {
			maxS = n
		}
	}
	k := params.Buckets(r.prm.K, 0, float64(maxS), r.s+int64(r.m.Cfg.HeapPtrBytes), r.prm.MRproc)
	r.res.K = k
	bucketOfKey := func(key uint64) int {
		d := uint64(r.d)
		ns := uint64(r.w.Spec.NS)
		node := key * d / ns
		lo := node * ns / d
		hi := (node + 1) * ns / d
		b := int((key - lo) * uint64(k) / (hi - lo))
		if b >= k {
			b = k - 1
		}
		return b
	}

	// Pre-compute exchange and bucket sizes for exact layout.
	type ref struct {
		pj  pendingJoin
		key uint64
	}
	sCount := make([][]int, r.d)
	rCount := make([][]int, r.d)
	for j := 0; j < r.d; j++ {
		sCount[j] = make([]int, k)
		rCount[j] = make([]int, k)
	}
	rxCount := make([][]int, r.d) // rxCount[i][j]: Ri objects owned by node j
	sxCount := make([][]int, r.d)
	for i := 0; i < r.d; i++ {
		rxCount[i] = make([]int, r.d)
		sxCount[i] = make([]int, r.d)
	}
	for i := 0; i < r.d; i++ {
		for _, ptr := range r.w.Refs[i] {
			key := keys.KeyOf(ptr)
			j := keys.NodeOf(key)
			rCount[j][bucketOfKey(key)]++
			if j != i {
				rxCount[i][j]++
			}
		}
		for x := 0; x < r.w.SizeS(i); x++ {
			ptr := relation.SPtr{Part: int32(i), Index: int32(x)}
			key := keys.KeyOf(ptr)
			j := keys.NodeOf(key)
			sCount[j][bucketOfKey(key)]++
			if j != i {
				sxCount[i][j]++
			}
		}
	}
	rStart := make([][]int64, r.d)
	sStart := make([][]int64, r.d)
	rTotal := make([]int64, r.d)
	sTotal := make([]int64, r.d)
	for j := 0; j < r.d; j++ {
		rStart[j] = make([]int64, k+1)
		sStart[j] = make([]int64, k+1)
		for b := 0; b < k; b++ {
			rStart[j][b+1] = rStart[j][b] + int64(rCount[j][b])
			sStart[j][b+1] = sStart[j][b] + int64(sCount[j][b])
		}
		rTotal[j] = rStart[j][k]
		sTotal[j] = sStart[j][k]
	}

	// Shared bucket state: objects per (node, bucket) in arrival order.
	rBuck := make([][][]ref, r.d)
	sBuck := make([][][]relation_S, r.d)
	rCur := make([][]int64, r.d)
	sCur := make([][]int64, r.d)
	rhSeg := make([]*seg.Segment, r.d) // each filled by its owner before the first barrier
	shSeg := make([]*seg.Segment, r.d)
	for j := 0; j < r.d; j++ {
		rBuck[j] = make([][]ref, k)
		sBuck[j] = make([][]relation_S, k)
		rCur[j] = make([]int64, k)
		sCur[j] = make([]int64, k)
	}
	for i := 0; i < r.d; i++ {
		i := i
		r.m.K.Spawn(fmt.Sprintf("Rproc%d", i), func(p *sim.Proc) {
			pg := r.newPager(fmt.Sprintf("Rproc%d", i), r.prm.MRproc)
			mgr := r.m.Mgr[i]

			mgr.OpenMap(p, r.segR[i])
			mgr.OpenMap(p, r.segS[i])
			rhSeg[i] = mgr.NewMap(p, fmt.Sprintf("RH%d", i), max64(1, rTotal[i]*r.r))
			shSeg[i] = mgr.NewMap(p, fmt.Sprintf("SH%d", i), max64(1, sTotal[i]*r.s))
			rpSeg := mgr.NewMap(p, fmt.Sprintf("RX%d", i), max64(1, int64(r.w.SizeR(i))*r.r))
			spSeg := mgr.NewMap(p, fmt.Sprintf("SX%d", i), max64(1, int64(r.w.SizeS(i))*r.s))
			r.markPhase(p, "setup")
			bar.Wait(p)

			writeR := func(j int, rf ref) {
				b := bucketOfKey(rf.key)
				off := (rStart[j][b] + rCur[j][b]) * r.r
				pg.Touch(p, rhSeg[j], off, r.r, true)
				rCur[j][b]++
				rBuck[j][b] = append(rBuck[j][b], rf)
			}
			writeS := func(j int, so relation_S) {
				b := bucketOfKey(so.key)
				off := (sStart[j][b] + sCur[j][b]) * r.s
				pg.Touch(p, shSeg[j], off, r.s, true)
				sCur[j][b]++
				sBuck[j][b] = append(sBuck[j][b], so)
			}

			// Pass 0: scan Ri AND Si, hashing each object by key; local
			// objects go straight to buckets, foreign ones to per-owner
			// sub-partitions of the exchange areas on the local disk
			// (the same RPi,j structure the pointer algorithms use).
			rxRefs := make([][]ref, r.d)
			sxRefs := make([][]relation_S, r.d)
			rxCur := make([]int64, r.d)
			sxCur := make([]int64, r.d)
			rxOff := make([]int64, r.d)
			sxOff := make([]int64, r.d)
			{
				// Sub-partition layout from pre-computed ownership counts.
				var ro, so int64
				for j := 0; j < r.d; j++ {
					rxOff[j], sxOff[j] = ro, so
					if j != i {
						ro += int64(rxCount[i][j]) * r.r
						so += int64(sxCount[i][j]) * r.s
					}
				}
			}
			for x, ptr := range r.w.Refs[i] {
				pg.Touch(p, r.segR[i], int64(x)*r.r, r.r, false)
				key := keys.KeyOf(ptr)
				j := keys.NodeOf(key)
				p.Advance(r.m.Cfg.HashCost + r.m.Cfg.TransferPP(r.r))
				rf := ref{pj: pendingJoin{ri: int32(i), x: int32(x), ptr: ptr}, key: key}
				if j == i {
					writeR(i, rf)
					continue
				}
				pg.Touch(p, rpSeg, rxOff[j]+rxCur[j]*r.r, r.r, true)
				rxCur[j]++
				rxRefs[j] = append(rxRefs[j], rf)
			}
			for x := 0; x < r.w.SizeS(i); x++ {
				pg.Touch(p, r.segS[i], int64(x)*r.s, r.s, false)
				ptr := relation.SPtr{Part: int32(i), Index: int32(x)}
				key := keys.KeyOf(ptr)
				j := keys.NodeOf(key)
				p.Advance(r.m.Cfg.HashCost + r.m.Cfg.TransferPP(r.s))
				so := relation_S{ptr: ptr, key: key}
				if j == i {
					writeS(i, so)
					continue
				}
				pg.Touch(p, spSeg, sxOff[j]+sxCur[j]*r.s, r.s, true)
				sxCur[j]++
				sxRefs[j] = append(sxRefs[j], so)
			}
			r.markPhase(p, "pass0")
			bar.Wait(p)

			// Pass 1: staggered exchange; each phase reads only the
			// sub-partition owned by the phase's target node.
			for t := 1; t < r.d; t++ {
				j := r.phasePartition(i, t)
				for n, rf := range rxRefs[j] {
					pg.Touch(p, rpSeg, rxOff[j]+int64(n)*r.r, r.r, false)
					p.Advance(r.m.Cfg.HashCost + r.m.Cfg.TransferPP(r.r))
					writeR(j, rf)
				}
				for n, so := range sxRefs[j] {
					pg.Touch(p, spSeg, sxOff[j]+int64(n)*r.s, r.s, false)
					p.Advance(r.m.Cfg.HashCost + r.m.Cfg.TransferPP(r.s))
					writeS(j, so)
				}
				bar.Wait(p)
			}
			for j := 0; j < r.d; j++ {
				if j != i {
					pg.FlushSegment(p, rhSeg[j])
					pg.DropSegment(rhSeg[j])
					pg.FlushSegment(p, shSeg[j])
					pg.DropSegment(shSeg[j])
				}
			}
			r.markPhase(p, "pass1")
			bar.Wait(p)

			// Pass 2: per bucket, build an in-memory table on the S
			// bucket and probe with the R bucket.
			for b := 0; b < k; b++ {
				sObjs := sBuck[i][b]
				table := make(map[uint64]int, len(sObjs))
				overhead := int64(len(sObjs)) * (r.s + int64(r.m.Cfg.HeapPtrBytes))
				reserve := r.reserve(p, pg, int((overhead+r.b-1)/r.b))
				for n, so := range sObjs {
					off := (sStart[i][b] + int64(n)) * r.s
					pg.Touch(p, shSeg[i], off, r.s, false)
					p.Advance(r.m.Cfg.HashCost)
					table[so.key] = n
				}
				for n, rf := range rBuck[i][b] {
					off := (rStart[i][b] + int64(n)) * r.r
					pg.Touch(p, rhSeg[i], off, r.r, false)
					p.Advance(r.m.Cfg.HashCost)
					if _, ok := table[rf.key]; ok {
						p.Advance(r.m.Cfg.TransferPS(r.r + r.s))
						r.res.Signature += relation.PairHash(rf.pj.ri, rf.pj.x, rf.pj.ptr)
						r.res.Pairs++
					}
				}
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

// relation_S carries one S object through the traditional exchange.
type relation_S struct {
	ptr relation.SPtr
	key uint64
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
