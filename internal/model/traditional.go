package model

import (
	"math"

	"mmjoin/internal/params"
	"mmjoin/internal/sim"
)

// PredictTraditionalGrace evaluates the analytical model for the
// conventional value-based parallel Grace hash join — the paper's §9
// future work ("exploring the applicability of our model to traditional
// join algorithms"). The structure mirrors the pointer-based Grace
// analysis, with the extra terms a value join cannot avoid: S is read,
// hashed, exchanged across nodes, written into buckets, and re-read at
// probe time, and every bucket needs an in-memory table built on its S
// objects.
func PredictTraditionalGrace(c Calibration, in Inputs) (*Prediction, error) {
	if err := in.withDefaults(c); err != nil {
		return nil, err
	}
	q := derive(c, in)
	d := float64(in.D)
	// Exchange fractions: with hash partitioning by key, (1−1/D) of each
	// relation is foreign to its node.
	rLocal := q.ri / d * in.Skew
	rForeign := q.ri*in.Skew - rLocal
	sLocal := q.sj / d
	sForeign := q.sj - sLocal

	k := params.Buckets(in.K, 0, q.sj, in.S+c.HP, in.MRproc)
	p := &Prediction{K: k, TSize: 16}

	prh := pages(q.ri*in.Skew*float64(in.R), c.B)
	psh := pages(q.sj*float64(in.S), c.B)
	prx := pages(rForeign*float64(in.R), c.B)
	psx := pages(sForeign*float64(in.S), c.B)

	// Setup: both relations opened; bucket areas and exchange areas
	// created.
	p.add("setup", sim.Time(d*(c.OpenMap.Eval(q.pri)+c.OpenMap.Eval(q.psi)+
		c.NewMap.Eval(prh+psh)+c.NewMap.Eval(prx+psx))))

	// Pass 0: sequential scans of Ri and Si; local objects written to
	// buckets (K partial pages each), foreign ones to exchange areas.
	band0 := q.pri + q.psi + prh + psh + prx + psx
	p.add("pass0 read Ri", sim.Time(q.pri*c.DTTR.Eval(band0)))
	p.add("pass0 read Si", sim.Time(q.psi*c.DTTR.Eval(band0)))
	p.add("pass0 write RH", sim.Time((pages(rLocal*float64(in.R), c.B)+float64(k))*c.DTTW.Eval(band0)))
	p.add("pass0 write SH", sim.Time((pages(sLocal*float64(in.S), c.B)+float64(k))*c.DTTW.Eval(band0)))
	p.add("pass0 write RX", sim.Time(prx*c.DTTW.Eval(band0)))
	p.add("pass0 write SX", sim.Time(psx*c.DTTW.Eval(band0)))

	// Premature bucket-page replacement: both relations' bucket sets
	// compete for frames during pass 0 (2K current pages), with the
	// exchange areas as companion fill streams.
	fill0 := 2 / (float64(c.B) / float64(in.R))
	thrash0 := GraceThrash(int(rLocal+sLocal), 2*k, int(q.frames), in.D+2, fill0)
	p.add("pass0 thrash", sim.Time(thrash0*(c.DTTR.Eval(band0)+c.DTTW.Eval(band0))))

	// Pass 1: staggered exchange — every foreign object is re-read from
	// its exchange area and written into the owner's buckets.
	band1 := prh + psh + prx + psx
	p.add("pass1 read RX", sim.Time(prx*c.DTTR.Eval(band1)))
	p.add("pass1 read SX", sim.Time(psx*c.DTTR.Eval(band1)))
	p.add("pass1 write RH", sim.Time((prx+float64(k))*c.DTTW.Eval(band1)))
	p.add("pass1 write SH", sim.Time((psx+float64(k))*c.DTTW.Eval(band1)))

	// Pass 2: per bucket, read the S bucket (building the table), then
	// the R bucket (probing).
	bandProbe := math.Max(1, (prh+psh)/float64(k)/2)
	p.add("probe io", sim.Time((prh+psh)*c.DTTR.Eval(bandProbe)))

	// CPU: both relations hashed during partitioning and again at probe;
	// all objects moved once per pass they participate in.
	p.add("hash", sim.Time(2*(q.ri*in.Skew+q.sj))*c.Hash)
	p.add("move pass0", sim.Time((q.ri*float64(in.R)+q.sj*float64(in.S))*c.MTpp))
	p.add("move pass1", sim.Time((rForeign*float64(in.R)+sForeign*float64(in.S))*c.MTpp))
	p.add("result transfer", sim.Time(q.ri*in.Skew*float64(in.R+in.S)*c.MTps))
	return p, nil
}
