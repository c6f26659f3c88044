package model

import (
	"mmjoin/internal/disk"
	"mmjoin/internal/machine"
	"mmjoin/internal/seg"
	"mmjoin/internal/sim"
)

// Calibration bundles the measured machine-dependent functions and
// constants the model consumes — the analogue of the paper's Fig. 1
// measurements plus microbenchmarked CPU costs.
type Calibration struct {
	B int64 // page size

	DTTR, DTTW Curve // ns per block vs band size in blocks (Fig. 1a)

	NewMap, OpenMap, DeleteMap Curve // ns vs mapping size in pages (Fig. 1b)

	CS       sim.Time
	Map      sim.Time
	Hash     sim.Time
	Compare  sim.Time
	Swap     sim.Time
	Transfer sim.Time

	MTpp, MTps, MTsp, MTss float64 // ns per byte

	HP int64 // heap element size, bytes
}

// Calibrate measures the machine exactly as the paper measured its
// testbed: the dtt curves by random I/O in swept bands, the mapping
// costs by timed map operations, and the CPU constants as a
// microbenchmark would report them (here: read from the configuration).
// opsPerBand controls calibration effort; seed fixes the random access
// patterns. The bands are measured one after another on the calling
// goroutine.
func Calibrate(cfg machine.Config, opsPerBand int, seed int64) Calibration {
	dtt := disk.MeasureDTT(cfg.Disk, disk.StandardBands, opsPerBand, seed, nil)
	setup := seg.MeasureSetup(cfg.Disk, cfg.Setup, seg.StandardSetupSizes)

	bands := make([]float64, len(dtt))
	reads := make([]float64, len(dtt))
	writes := make([]float64, len(dtt))
	for i, pt := range dtt {
		bands[i] = float64(pt.Band)
		reads[i] = float64(pt.Read)
		writes[i] = float64(pt.Write)
	}
	sizes := make([]float64, len(setup))
	news := make([]float64, len(setup))
	opens := make([]float64, len(setup))
	dels := make([]float64, len(setup))
	for i, pt := range setup {
		sizes[i] = float64(pt.Pages)
		news[i] = float64(pt.New)
		opens[i] = float64(pt.Open)
		dels[i] = float64(pt.Delete)
	}
	return Calibration{
		B:         int64(cfg.B()),
		DTTR:      MustCurve(bands, reads),
		DTTW:      MustCurve(bands, writes),
		NewMap:    MustCurve(sizes, news),
		OpenMap:   MustCurve(sizes, opens),
		DeleteMap: MustCurve(sizes, dels),
		CS:        cfg.CS,
		Map:       cfg.MapCost,
		Hash:      cfg.HashCost,
		Compare:   cfg.CompareCost,
		Swap:      cfg.SwapCost,
		Transfer:  cfg.TransferCost,
		MTpp:      cfg.MTpp, MTps: cfg.MTps, MTsp: cfg.MTsp, MTss: cfg.MTss,
		HP: int64(cfg.HeapPtrBytes),
	}
}
