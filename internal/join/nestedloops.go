package join

import "mmjoin/internal/sim"

// runNestedLoops executes the parallel pointer-based nested loops join
// (§5): the partitioning passes with every object joined on arrival —
// Ri,i with Si during the pass-0 scan, RPi,j with Sj in its pass-1 phase
// — through the G buffer, so nothing is written but RPi.
func (r *runner) runNestedLoops() {
	r.partitionJoin(passes{
		barrier: "nl-phase",
		place: func(rp *rproc, _ int, pj pendingJoin, g *gBuffer, owed sim.Time) {
			rp.p.Advance(owed)
			g.add(rp.p, pj.ri, pj.x, pj.ptr)
		},
	})
}
