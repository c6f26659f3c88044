package disk

import (
	"fmt"
	"math/rand"

	"mmjoin/internal/metrics"
	"mmjoin/internal/sim"
)

// DTTPoint is one measured point of the disk-transfer-time function: the
// average per-block cost of random reads (dttr) and random writes (dttw)
// confined to a band of the given size, with the band itself swept
// sequentially across a large disk area — the measurement procedure behind
// the paper's Fig. 1(a).
type DTTPoint struct {
	Band  int // band size in blocks; 1 means purely sequential access
	Read  sim.Time
	Write sim.Time
}

// StandardBands are the band sizes sampled for Fig. 1(a) reproductions.
var StandardBands = []int{1, 100, 400, 800, 1600, 3200, 4800, 6400, 8000, 9600, 11200, 12800}

// MeasureDTT measures dttr/dttw for each band size, in band order. Each
// (band size, direction) pair runs on its own fresh drive with the given
// configuration, named calib.b<band>.<read|write>, so a non-nil registry
// collects one set of service-time histograms and counters per point; a
// nil one attaches nothing. opsPerBand bounds the I/Os issued per band
// size (more gives smoother averages). The measurement is deterministic
// for a fixed seed, and the registry changes no point.
func MeasureDTT(cfg Config, bands []int, opsPerBand int, seed int64, reg *metrics.Registry) []DTTPoint {
	points := make([]DTTPoint, 0, len(bands))
	for _, band := range bands {
		points = append(points, DTTPoint{
			Band:  band,
			Read:  measureOne(cfg, fmt.Sprintf("calib.b%d.read", band), band, opsPerBand, seed, false, reg),
			Write: measureOne(cfg, fmt.Sprintf("calib.b%d.write", band), band, opsPerBand, seed+1, true, reg),
		})
	}
	return points
}

// measureOne measures the per-block cost of random access (without
// duplicates) in sequential band positions across the drive.
func measureOne(cfg Config, name string, band, ops int, seed int64, write bool,
	reg *metrics.Registry) sim.Time {
	if band < 1 {
		panic("disk: band must be >= 1")
	}
	k := sim.NewKernel()
	d := MustNew(k, name, cfg)
	d.Instrument(reg)
	rng := rand.New(rand.NewSource(seed))

	area := cfg.Blocks / 2 // sweep the band across half the drive
	if band > area {
		band = area
	}
	perPosition := band
	if perPosition > 256 {
		perPosition = 256
	}
	positions := ops / perPosition
	if positions < 1 {
		positions = 1
	}
	maxPositions := area / band
	if maxPositions < 1 {
		maxPositions = 1
	}
	if positions > maxPositions {
		positions = maxPositions
	}

	var total sim.Time
	var count int64
	k.Spawn("measure", func(p *sim.Proc) {
		for pos := 0; pos < positions; pos++ {
			// The band is swept sequentially across the area: with
			// band size 1 the accesses are purely sequential.
			base := pos * band
			// Random access within the band, no duplicates.
			offs := rng.Perm(band)[:perPosition]
			start := p.Now()
			for _, o := range offs {
				if write {
					d.ScheduleWrite(p, base+o)
				} else {
					d.Read(p, base+o)
				}
			}
			if write {
				d.Drain(p)
			}
			total += p.Now() - start
			count += int64(perPosition)
		}
		d.Close()
	})
	k.Run()
	return total / sim.Time(count)
}
