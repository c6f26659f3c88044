package join

import (
	"slices"
	"sort"

	"mmjoin/internal/params"
	"mmjoin/internal/sim"
)

// runGrace executes the parallel pointer-based Grace join variant (§7):
// hashJoin with nothing resident, K and TSIZE by the shared rules
// (internal/params) at the largest |RSi|, K never exceeding the
// references there are to spread.
func (r *runner) runGrace() {
	maxRS := float64(slices.Max(r.w.RSCounts()))
	k := params.Cap(params.Buckets(r.prm.K, 0, maxRS, r.r, r.prm.MRproc), maxRS)
	r.hashJoin("grace-phase", 0, k, params.TableSize(maxRS, k))
}

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
	maxRS := float64(slices.Max(r.w.RSCounts()))
	maxS := 0
	for j := 0; j < r.d; j++ {
		maxS = max(maxS, r.w.SizeS(j))
	}
	f0 := params.Resident(r.prm.MRproc, float64(maxS), r.s)
	k := params.Buckets(r.prm.K, f0, maxRS, r.r, r.prm.MRproc)
	r.hashJoin("hh-phase", f0, k, params.TableSize((1-f0)*maxRS, k))
}

// hashJoin runs the partitioning passes with join attributes hashed into
// one of k clustered buckets per RSi, except those pointing into the
// first f0 of their S partition, which join on arrival. The hash
// preserves the S-pointer order, so bucket b holds only pointers smaller
// than any in bucket b+1 and Si can be read sequentially across buckets.
// Pass 1+b loads bucket b into a memory-resident hash table of tsize
// chains and joins its chains in order against Si through the shared
// buffer.
func (r *runner) hashJoin(barrier string, f0 float64, k, tsize int) {
	r.res.K, r.res.TSize = k, tsize

	// residentUpTo[j]: S indexes below this join immediately.
	residentUpTo := make([]int32, r.d)
	for j := range residentUpTo {
		residentUpTo[j] = int32(f0 * float64(r.w.SizeS(j)))
	}
	// The order-preserving first hash: bucket of an overflow pointer into Sj.
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

	// Pre-compute bucket start offsets (objects) within each RSj (the
	// executable system would size bucket extents from partition
	// statistics; we have them exactly).
	bucketStart := make([][]int64, r.d)
	for j := range bucketStart {
		bucketStart[j] = make([]int64, k+1)
	}
	for i := 0; i < r.d; i++ {
		for _, ptr := range r.w.Refs[i] {
			if ptr.Index >= residentUpTo[ptr.Part] {
				bucketStart[ptr.Part][bucketOf(ptr.Index, int(ptr.Part))+1]++
			}
		}
	}
	overflow := make([]int, r.d)
	buckets := make([][][]pendingJoin, r.d) // per RSj, per bucket, arrival order
	for j := range bucketStart {
		for b := 0; b < k; b++ {
			bucketStart[j][b+1] += bucketStart[j][b]
		}
		overflow[j] = int(bucketStart[j][k])
		buckets[j] = make([][]pendingJoin, k)
	}

	r.partitionJoin(passes{
		barrier: barrier,
		rsObjs:  overflow,
		place: func(rp *rproc, j int, pj pendingJoin, g *gBuffer, owed sim.Time) {
			if pj.ptr.Index < residentUpTo[j] {
				rp.p.Advance(owed + r.m.Cfg.HashCost)
				g.add(rp.p, pj.ri, pj.x, pj.ptr)
				return
			}
			rp.p.Advance(owed + r.m.Cfg.HashCost + r.m.Cfg.TransferPP(r.r))
			b := bucketOf(pj.ptr.Index, j)
			off := (bucketStart[j][b] + int64(len(buckets[j][b]))) * r.r
			rp.pg.Touch(rp.p, rp.rs[j], off, r.r, true)
			buckets[j][b] = append(buckets[j][b], pj)
		},
		// Pass 1+b: per bucket, build the TSIZE-chain table in memory and
		// join its chains in order. The second hash also preserves pointer
		// order, so chain order ⇒ ascending S addresses ⇒ (near-)sequential
		// reads of Si.
		finish: func(rp *rproc) {
			p, pg, i := rp.p, rp.pg, rp.i
			for b, objs := range buckets[i] {
				overhead := int64(tsize)*8 + int64(len(objs))*int64(r.m.Cfg.HeapPtrBytes)
				reserve := r.reserve(p, pg, int((overhead+r.b-1)/r.b))
				for n := range objs {
					pg.Touch(p, rp.rs[i], (bucketStart[i][b]+int64(n))*r.r, r.r, false)
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
		},
		phases: []string{"probe"},
	})
}
