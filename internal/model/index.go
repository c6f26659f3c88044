package model

import (
	"math"

	"mmjoin/internal/sim"
)

// Analyses of the index join paths (mstore.indexNL / indexMerge) in the
// paper's per-Rproc accounting style. Neither path writes temporary
// relations, so both predictions have no DTTW terms at all — the real
// crossover against the staging algorithms. What they pay instead is
// index geometry: log-fanout node touches per probe (index-NL) or a
// full leaf-chain scan (index-merge), each node touch priced with the
// same dttr-calibrated dereference cost and Mackert–Lohman residency
// model as every data-page fault.

// indexFanout is the per-node key capacity of the store's persistent
// B-tree indexes: btMaxKeys(4096), the executor's 4 KiB node
// (mstore.indexNodeBytes).
const indexFanout = 253

// indexGeom is the derived shape of one per-partition B-tree: leaf and
// upper-level page counts and the descent height, for n indexed values
// at fanout f with one page per node.
type indexGeom struct {
	leaves float64 // leaf nodes
	upper  float64 // nodes above the leaves
	height float64 // levels from root to leaf (1 for a root-only tree)
}

func deriveIndex(n, f float64) indexGeom {
	g := indexGeom{leaves: math.Max(1, math.Ceil(n/f)), height: 1}
	for w := g.leaves; w > 1; {
		w = math.Ceil(w / (f + 1))
		g.upper += w
		g.height++
	}
	return g
}

// indexPages converts node counts to page counts (nodes are one 4 KiB
// page by construction; re-scale if the calibration page differs).
func indexPages(c Calibration, nodes float64) float64 {
	return pages(nodes*4096, c.B)
}

// PredictIndexNL evaluates the index-nested-loop analysis: scan Ri
// sequentially, and per R object descend S's per-partition B-tree —
// height−1 upper-node touches (tiny, resident after first touch) plus
// one leaf fault governed by the urn/LRU model — then dereference the S
// object itself. No temporary I/O of any kind; cost is R-proportional,
// which is why the path wins when |R| ≪ |S|.
func PredictIndexNL(c Calibration, in Inputs) (*Prediction, error) {
	if err := in.withDefaults(c); err != nil {
		return nil, err
	}
	q := derive(c, in)
	d := float64(in.D)
	f := float64(indexFanout)
	rsi := q.ri // probes issued per Rproc
	distinct := rsi
	if in.DistinctS > 0 {
		distinct = float64(in.DistinctS)
	}
	g := deriveIndex(q.sj, f)
	leafPages := indexPages(c, g.leaves)
	upperPages := indexPages(c, math.Max(1, g.upper))

	p := &Prediction{}
	// Setup: Ri and the (index-carrying) Si segments opened.
	p.add("setup", sim.Time(d*(c.OpenMap.Eval(q.pri)+c.OpenMap.Eval(q.psi+leafPages+upperPages))))

	band := q.pri + q.psi + leafPages
	// Scan Ri sequentially.
	p.add("scan Ri", sim.Time(q.pri*c.DTTR.Eval(band)))
	// Upper index levels: read once, then resident (they are a ~1/f²
	// fraction of the data, far smaller than any realistic buffer).
	p.add("index upper", sim.Time(upperPages*c.DTTR.Eval(band)))
	// Leaf touches: one per probe, against leafPages with at most
	// min(leaves, distinct) of them ever needed — the same LRU estimate
	// as a data-page stream, with the buffer shared against S's data.
	leafDistinct := math.Min(math.Max(1, leafPages), distinct)
	p.add("index leaves", sim.Time(Ylru(rsi, math.Max(1, leafPages), leafDistinct, q.frames, rsi)*c.DTTR.Eval(band)))
	// The S objects themselves, exactly as the probe phase of every
	// other algorithm prices them.
	p.add("read Si", sim.Time(Ylru(rsi, q.psi, distinct, q.frames, rsi)*c.DTTR.Eval(band)))

	// CPU: the descent — log2(f) binary-search compares per level —
	// plus the usual per-object mapping/transfer accounting.
	p.add("descend", sim.Time(rsi*g.height*math.Log2(math.Max(2, f)))*c.Compare)
	p.add("map", sim.Time(q.ri)*c.Map)
	p.add("transfer", sim.Time(rsi*float64(in.R+in.Ptr+in.S)*c.MTps))
	p.add("context switches", gSwitch(c, q, rsi))
	return p, nil
}

// PredictIndexMerge evaluates the sorted-range merge analysis: both
// sides' leaf chains are already in join-key order, so the merge reads
// the R-side leaf chain once, zips it against every S partition's leaf
// chain (the executor walks all D S-trees' ranges per R partition), and
// dereferences matching objects. The sort the sort-merge join performs
// at run time was paid at bulk-load, so there are no sort passes, no
// run files, and again no DTTW terms.
func PredictIndexMerge(c Calibration, in Inputs) (*Prediction, error) {
	if err := in.withDefaults(c); err != nil {
		return nil, err
	}
	q := derive(c, in)
	d := float64(in.D)
	f := float64(indexFanout)
	rsi := q.ri
	distinct := rsi
	if in.DistinctS > 0 {
		distinct = float64(in.DistinctS)
	}
	gr := deriveIndex(q.ri, f)
	rLeafPages := indexPages(c, gr.leaves)
	// Each Rproc's morsels collectively scan all D S partitions' leaf
	// chains (one pass over NS keys), honest to the executor's D×D cell
	// fan-out.
	gs := deriveIndex(float64(in.NS), f)
	sLeafPages := indexPages(c, gs.leaves)

	p := &Prediction{}
	p.add("setup", sim.Time(d*(c.OpenMap.Eval(q.pri+rLeafPages)+c.OpenMap.Eval(q.psi+sLeafPages/d))))

	band := q.pri + q.psi + rLeafPages + sLeafPages/d
	// Leaf chains stream sequentially on both sides.
	p.add("scan R leaves", sim.Time(rLeafPages*c.DTTR.Eval(band)))
	p.add("scan S leaves", sim.Time(sLeafPages*c.DTTR.Eval(band)))
	// R objects are dereferenced through posting values in key order —
	// random within the partition, LRU-modeled like any pointer stream.
	p.add("read Ri", sim.Time(Ylru(q.ri, q.pri, q.ri, q.frames, q.ri)*c.DTTR.Eval(band)))
	// Matching S objects, as in every probe phase.
	p.add("read Si", sim.Time(Ylru(rsi, q.psi, distinct, q.frames, rsi)*c.DTTR.Eval(band)))

	// CPU: the zip advances one cursor per compared key — ri + NS/D·D
	// compares per Rproc — plus per-pair transfer and mapping.
	p.add("merge", sim.Time(q.ri+float64(in.NS))*c.Compare)
	p.add("map", sim.Time(q.ri)*c.Map)
	p.add("transfer", sim.Time(rsi*float64(in.R+in.Ptr+in.S)*c.MTps))
	p.add("context switches", gSwitch(c, q, rsi))
	return p, nil
}
