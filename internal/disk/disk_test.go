package disk

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"mmjoin/internal/metrics"
	"mmjoin/internal/sim"
)

func smallConfig() Config {
	c := DefaultConfig()
	c.Blocks = 20000
	return c
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{BlockBytes: 4096},
		{BlockBytes: 4096, Blocks: 100},
		{BlockBytes: 4096, Blocks: 100, BlocksPerCylinder: 8},
	}
	for i, c := range bad {
		k := sim.NewKernel()
		if _, err := New(k, "d", c); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
	}
	k := sim.NewKernel()
	d, err := New(k, "d", DefaultConfig())
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	d.Close()
	k.Run()
}

func TestSequentialReadCostsTransferOnly(t *testing.T) {
	cfg := smallConfig()
	k := sim.NewKernel()
	d := MustNew(k, "d", cfg)
	var second sim.Time
	k.Spawn("r", func(p *sim.Proc) {
		d.Read(p, 100)
		start := p.Now()
		d.Read(p, 101) // sequential continuation
		second = p.Now() - start
		d.Close()
	})
	k.Run()
	if want := cfg.Transfer + cfg.FaultOverhead; second != want {
		t.Errorf("sequential read cost %v, want %v", second, want)
	}
}

func TestRandomReadCostsSeekPlusRotation(t *testing.T) {
	cfg := smallConfig()
	k := sim.NewKernel()
	d := MustNew(k, "d", cfg)
	var far sim.Time
	k.Spawn("r", func(p *sim.Proc) {
		d.Read(p, 0)
		start := p.Now()
		d.Read(p, cfg.Blocks-1) // full-stroke seek
		far = p.Now() - start
		d.Close()
	})
	k.Run()
	want := cfg.SeekMax + cfg.Rotation/2 + cfg.Transfer + cfg.FaultOverhead
	if far != want {
		t.Errorf("full-stroke read cost %v, want %v", far, want)
	}
}

func TestSameCylinderNoSeek(t *testing.T) {
	cfg := smallConfig()
	k := sim.NewKernel()
	d := MustNew(k, "d", cfg)
	var cost sim.Time
	k.Spawn("r", func(p *sim.Proc) {
		d.Read(p, 0)
		start := p.Now()
		d.Read(p, 5) // same cylinder (BlocksPerCylinder=64), not sequential
		cost = p.Now() - start
		d.Close()
	})
	k.Run()
	want := cfg.Rotation/2 + cfg.Transfer + cfg.FaultOverhead
	if cost != want {
		t.Errorf("same-cylinder read cost %v, want %v", cost, want)
	}
}

func TestReadOutOfRangePanics(t *testing.T) {
	cfg := smallConfig()
	k := sim.NewKernel()
	d := MustNew(k, "d", cfg)
	k.Spawn("r", func(p *sim.Proc) {
		defer d.Close()
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-range block")
			}
		}()
		d.Read(p, cfg.Blocks)
	})
	k.Run()
}

func TestScheduleWriteIsAsync(t *testing.T) {
	cfg := smallConfig()
	k := sim.NewKernel()
	d := MustNew(k, "d", cfg)
	var queued sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			d.ScheduleWrite(p, i*100)
		}
		queued = p.Now()
		d.Drain(p)
		if d.DirtyQueued() != 0 {
			t.Errorf("DirtyQueued = %d after Drain", d.DirtyQueued())
		}
		d.Close()
	})
	end := k.Run()
	if queued != 0 {
		t.Errorf("queuing writes took %v, want 0 (deferred)", queued)
	}
	if end == 0 {
		t.Error("flusher did no work")
	}
	if got := d.Stats().Writes; got != 10 {
		t.Errorf("Writes = %d, want 10", got)
	}
}

func TestDuplicateDirtyBlockCoalesced(t *testing.T) {
	cfg := smallConfig()
	k := sim.NewKernel()
	d := MustNew(k, "d", cfg)
	k.Spawn("w", func(p *sim.Proc) {
		d.ScheduleWrite(p, 7)
		d.ScheduleWrite(p, 7)
		d.ScheduleWrite(p, 7)
		d.Drain(p)
		d.Close()
	})
	k.Run()
	if got := d.Stats().Writes; got != 1 {
		t.Errorf("Writes = %d, want 1 (coalesced)", got)
	}
}

func TestWriteThrottling(t *testing.T) {
	cfg := smallConfig()
	cfg.WriteQueue = 4
	cfg.WriteBatch = 2
	k := sim.NewKernel()
	d := MustNew(k, "d", cfg)
	k.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			d.ScheduleWrite(p, i*37%cfg.Blocks)
		}
		d.Drain(p)
		d.Close()
	})
	k.Run()
	if d.Stats().Stalls == 0 {
		t.Error("expected writer stalls with a tiny queue")
	}
	if d.Stats().Writes != 50 {
		t.Errorf("Writes = %d, want 50", d.Stats().Writes)
	}
}

func TestReadsInterleaveWithFlush(t *testing.T) {
	// A reader should not wait for the whole dirty queue: the arm is
	// acquired per block.
	cfg := smallConfig()
	k := sim.NewKernel()
	d := MustNew(k, "d", cfg)
	var readDone sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			d.ScheduleWrite(p, (i*997)%cfg.Blocks)
		}
		d.Drain(p)
		d.Close()
	})
	k.Spawn("r", func(p *sim.Proc) {
		d.Read(p, 12345)
		readDone = p.Now()
	})
	end := k.Run()
	if readDone >= end {
		t.Errorf("read finished at %v, end %v: no interleaving", readDone, end)
	}
}

func TestDrainOnIdleDiskReturnsImmediately(t *testing.T) {
	cfg := smallConfig()
	k := sim.NewKernel()
	d := MustNew(k, "d", cfg)
	k.Spawn("p", func(p *sim.Proc) {
		d.Drain(p)
		d.Close()
	})
	if end := k.Run(); end != 0 {
		t.Errorf("end = %v, want 0", end)
	}
}

func TestSeekTimeMonotone(t *testing.T) {
	cfg := smallConfig()
	k := sim.NewKernel()
	d := MustNew(k, "d", cfg)
	d.Close()
	k.Run()
	prev := sim.Time(-1)
	for dist := 0; dist < 200; dist += 10 {
		st := d.seekTime(0, dist)
		if st < prev {
			t.Fatalf("seekTime not monotone at cylinder distance %d", dist)
		}
		prev = st
	}
	if d.seekTime(5, 5) != 0 {
		t.Error("zero-distance seek should be free")
	}
}

func TestNearestIndex(t *testing.T) {
	blocks := []int{10, 20, 30}
	cases := []struct{ pos, want int }{
		{0, 0}, {10, 0}, {14, 0}, {16, 1}, {25, 0 + 1}, {26, 2}, {99, 2},
	}
	for _, c := range cases {
		if got := nearestIndex(blocks, c.pos); got != c.want {
			t.Errorf("nearestIndex(%d) = %d, want %d", c.pos, got, c.want)
		}
	}
}

func TestQuickNearestIndexIsNearest(t *testing.T) {
	f := func(raw []uint16, pos uint16) bool {
		if len(raw) == 0 {
			return true
		}
		blocks := make([]int, 0, len(raw))
		seen := map[int]bool{}
		for _, r := range raw {
			if !seen[int(r)] {
				seen[int(r)] = true
				blocks = append(blocks, int(r))
			}
		}
		sortInts(blocks)
		got := nearestIndex(blocks, int(pos))
		best := -1
		bestDist := 1 << 30
		for i, b := range blocks {
			d := b - int(pos)
			if d < 0 {
				d = -d
			}
			if d < bestDist {
				bestDist = d
				best = i
			}
		}
		gd := blocks[got] - int(pos)
		if gd < 0 {
			gd = -gd
		}
		return gd == bestDist && best >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func TestMeasureDTTShape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep")
	}
	cfg := DefaultConfig()
	pts := MeasureDTT(cfg, []int{1, 1600, 12800}, 2000, 1, nil)
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	seq, mid, big := pts[0], pts[1], pts[2]
	// Sequential access is cheapest and read≈write.
	if seq.Read >= mid.Read || mid.Read >= big.Read {
		t.Errorf("dttr not increasing with band: %v %v %v", seq.Read, mid.Read, big.Read)
	}
	if seq.Write >= mid.Write || mid.Write >= big.Write {
		t.Errorf("dttw not increasing with band: %v %v %v", seq.Write, mid.Write, big.Write)
	}
	// Deferred SSTF writes must be cheaper than reads for random bands.
	if big.Write >= big.Read {
		t.Errorf("dttw (%v) should be below dttr (%v) at large band", big.Write, big.Read)
	}
	// Rough magnitude check against the paper's Fig 1(a): single-digit ms
	// sequential, tens of ms random.
	if seq.Read < sim.Millisecond || seq.Read > 10*sim.Millisecond {
		t.Errorf("sequential dttr %v out of the expected few-ms range", seq.Read)
	}
	if big.Read < 10*sim.Millisecond || big.Read > 40*sim.Millisecond {
		t.Errorf("random dttr %v out of the expected tens-of-ms range", big.Read)
	}
}

func TestMeasureDTTDeterministic(t *testing.T) {
	cfg := smallConfig()
	a := MeasureDTT(cfg, []int{100}, 300, 42, nil)
	b := MeasureDTT(cfg, []int{100}, 300, 42, nil)
	if a[0] != b[0] {
		t.Errorf("calibration not deterministic: %+v vs %+v", a[0], b[0])
	}
}

// TestMeasureDTTInstrumentedMatchesPlain checks that attaching a
// registry changes no measured point, and that the registry receives one
// stalls counter per drive, in band order, and the drive's service-time
// observations.
func TestMeasureDTTInstrumentedMatchesPlain(t *testing.T) {
	cfg := smallConfig()
	bands := []int{1, 100, 400, 1600}
	want := MeasureDTT(cfg, bands, 300, 42, nil)
	reg := metrics.New()
	got := MeasureDTT(cfg, bands, 300, 42, reg)
	if len(got) != len(want) {
		t.Fatalf("%d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("band %d: %+v with a registry, want %+v", want[i].Band, got[i], want[i])
		}
	}

	var drives, counters []string
	for _, band := range bands {
		for _, dir := range []string{"read", "write"} {
			drives = append(drives, fmt.Sprintf("calib.b%d.%s", band, dir))
		}
	}
	for _, c := range reg.Counters() {
		counters = append(counters, c.Name())
	}
	if len(counters) != len(drives) {
		t.Fatalf("counters %v, want one per drive %v", counters, drives)
	}
	for i, d := range drives {
		if counters[i] != d+".stalls" {
			t.Errorf("counter %d is %q, want %q", i, counters[i], d+".stalls")
		}
		var observed int64
		for _, h := range reg.Histograms() {
			if strings.HasPrefix(h.Name(), d+".") {
				observed += h.Count()
			}
		}
		if observed == 0 {
			t.Errorf("%s: no service time observed", d)
		}
	}
}

func TestRedirtyDuringFlushWritesTwice(t *testing.T) {
	// Regression: a block re-dirtied after the flusher picked it up (but
	// before its write completed) was silently coalesced away, losing the
	// second store. It must be queued for a second physical write.
	cfg := smallConfig()
	k := sim.NewKernel()
	d := MustNew(k, "d", cfg)
	k.Spawn("w", func(p *sim.Proc) {
		d.ScheduleWrite(p, 7)
		// Yield so the flusher extracts the batch and starts the write
		// (service time is several ms, so it is still mid-write).
		p.Advance(sim.Millisecond)
		if d.DirtyQueued() != 1 {
			t.Errorf("DirtyQueued = %d mid-flush, want 1", d.DirtyQueued())
		}
		d.ScheduleWrite(p, 7) // re-dirty while the first write is in flight
		d.Drain(p)
		d.Close()
	})
	k.Run()
	if got := d.Stats().Writes; got != 2 {
		t.Errorf("Writes = %d, want 2 (re-dirty mid-flush must not be lost)", got)
	}
}

func TestRedirtyBeforeFlushStillCoalesces(t *testing.T) {
	// The dedup must still collapse duplicates that are queued but not yet
	// picked up — only mid-flush re-dirties get a second write.
	cfg := smallConfig()
	k := sim.NewKernel()
	d := MustNew(k, "d", cfg)
	k.Spawn("w", func(p *sim.Proc) {
		d.ScheduleWrite(p, 7)
		d.ScheduleWrite(p, 7) // no yield: flusher has not run yet
		d.Drain(p)
		d.Close()
	})
	k.Run()
	if got := d.Stats().Writes; got != 1 {
		t.Errorf("Writes = %d, want 1 (still queued, coalesced)", got)
	}
}

func TestStatsComponentsSumToServiceSum(t *testing.T) {
	cfg := smallConfig()
	k := sim.NewKernel()
	d := MustNew(k, "d", cfg)
	k.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			d.Read(p, (i*997)%cfg.Blocks)
			if i%3 == 0 {
				d.ScheduleWrite(p, (i*1201)%cfg.Blocks)
			}
		}
		d.Drain(p)
		d.Close()
	})
	k.Run()
	s := d.Stats()
	if sum := s.SeekTime + s.RotationTime + s.TransferTime + s.OverheadTime; sum != s.ServiceSum {
		t.Errorf("components sum to %v, ServiceSum %v", sum, s.ServiceSum)
	}
	if s.SeekTime == 0 || s.RotationTime == 0 || s.TransferTime == 0 || s.OverheadTime == 0 {
		t.Errorf("expected all components non-zero: %+v", s)
	}
}

func TestSeekTimeExcludesRotation(t *testing.T) {
	// Regression: rotational latency was lumped into SeekTime. After one
	// full-stroke read, the seek component must be exactly SeekMax and the
	// rotation component exactly Rotation/2.
	cfg := smallConfig()
	k := sim.NewKernel()
	d := MustNew(k, "d", cfg)
	k.Spawn("r", func(p *sim.Proc) {
		d.Read(p, cfg.Blocks-1) // head starts at cylinder 0: full stroke
		d.Close()
	})
	k.Run()
	s := d.Stats()
	if s.SeekTime != cfg.SeekMax {
		t.Errorf("SeekTime = %v, want exactly SeekMax %v", s.SeekTime, cfg.SeekMax)
	}
	if want := cfg.Rotation / 2; s.RotationTime != want {
		t.Errorf("RotationTime = %v, want %v", s.RotationTime, want)
	}
	if s.TransferTime != cfg.Transfer || s.OverheadTime != cfg.FaultOverhead {
		t.Errorf("Transfer/Overhead = %v/%v, want %v/%v",
			s.TransferTime, s.OverheadTime, cfg.Transfer, cfg.FaultOverhead)
	}
}

func TestInstrumentPopulatesRegistry(t *testing.T) {
	cfg := smallConfig()
	cfg.WriteQueue = 4
	cfg.WriteBatch = 2
	k := sim.NewKernel()
	reg := metrics.New()
	d := MustNew(k, "d0", cfg)
	d.Instrument(reg)
	k.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			d.Read(p, (i*997)%cfg.Blocks)
			d.ScheduleWrite(p, (i*37)%cfg.Blocks)
		}
		// Burst past the tiny queue without yielding to force stalls.
		for i := 0; i < 20; i++ {
			d.ScheduleWrite(p, (i*1201+5)%cfg.Blocks)
		}
		d.Drain(p)
		d.Close()
	})
	k.Run()
	reg.Sample(k.Now())
	vals := reg.Samples()[0].Values
	if vals["d0.reads"] != 30 {
		t.Errorf("d0.reads gauge = %v", vals["d0.reads"])
	}
	if u := vals["d0.arm_util"]; u <= 0 || u > 1 {
		t.Errorf("d0.arm_util = %v, want (0,1]", u)
	}
	var hTotal sim.Time
	var hCount int64
	for _, h := range reg.Histograms() {
		hTotal += h.Sum()
		hCount += h.Count()
	}
	s := d.Stats()
	if hTotal != s.ServiceSum {
		t.Errorf("histogram totals %v != ServiceSum %v", hTotal, s.ServiceSum)
	}
	if hCount != s.Reads+s.Writes {
		t.Errorf("histogram count %d != reads+writes %d", hCount, s.Reads+s.Writes)
	}
	// The tiny queue forces stalls; they must reach the counter too.
	var stallCounter int64 = -1
	for _, c := range reg.Counters() {
		if c.Name() == "d0.stalls" {
			stallCounter = c.Value()
		}
	}
	if stallCounter != s.Stalls || stallCounter <= 0 {
		t.Errorf("stall counter %d, stats %d (want equal and positive)", stallCounter, s.Stalls)
	}
}

func TestWriteAfterClosePanics(t *testing.T) {
	cfg := smallConfig()
	k := sim.NewKernel()
	d := MustNew(k, "d", cfg)
	k.Spawn("w", func(p *sim.Proc) {
		d.Close()
		defer func() {
			if recover() == nil {
				t.Error("ScheduleWrite after Close should panic")
			}
		}()
		d.ScheduleWrite(p, 1)
	})
	k.Run()
}

func TestCloseIdempotentWithPendingWrites(t *testing.T) {
	cfg := smallConfig()
	k := sim.NewKernel()
	d := MustNew(k, "d", cfg)
	k.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			d.ScheduleWrite(p, i*100)
		}
		d.Close()
		d.Close() // second close is harmless
	})
	k.Run()
	if d.Stats().Writes != 5 {
		t.Errorf("Writes = %d, want 5 (flusher drains before exiting)", d.Stats().Writes)
	}
}
