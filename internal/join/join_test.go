package join

import (
	"strings"
	"testing"
	"testing/quick"

	"mmjoin/internal/machine"
	"mmjoin/internal/metrics"
	"mmjoin/internal/relation"
	"mmjoin/internal/sim"
)

// smallCfg shrinks the disks so tests stay fast.
func smallCfg() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Disk.Blocks = 40000
	return cfg
}

func smallWorkload(nr int, seed int64) *relation.Workload {
	spec := relation.DefaultSpec()
	spec.NR, spec.NS = nr, nr
	spec.Seed = seed
	return relation.MustGenerate(spec)
}

func smallParams(w *relation.Workload, mem int64) Params {
	return Params{Workload: w, MRproc: mem, Stagger: true}
}

// run and mustRun execute through the Request API, the package's only
// entry point since the package-level Run/MustRun shims were removed.
func run(alg Algorithm, cfg machine.Config, prm Params) (*Result, error) {
	return Request{Algorithm: alg, Config: cfg, Params: prm}.Run()
}

func mustRun(alg Algorithm, cfg machine.Config, prm Params) *Result {
	return Request{Algorithm: alg, Config: cfg, Params: prm}.MustRun()
}

func TestAllAlgorithmsComputeTheSameJoin(t *testing.T) {
	w := smallWorkload(4000, 1)
	wantSig, wantPairs := w.JoinSignature()
	for _, alg := range []Algorithm{NestedLoops, SortMerge, Grace, HybridHash, TraditionalGrace} {
		res, err := run(alg, smallCfg(), smallParams(w, 128<<10))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Pairs != wantPairs {
			t.Errorf("%v: %d pairs, want %d", alg, res.Pairs, wantPairs)
		}
		if res.Signature != wantSig {
			t.Errorf("%v: signature %x, want %x", alg, res.Signature, wantSig)
		}
		if res.Elapsed <= 0 {
			t.Errorf("%v: non-positive elapsed %v", alg, res.Elapsed)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	w := smallWorkload(2000, 2)
	for _, alg := range []Algorithm{NestedLoops, SortMerge, Grace, HybridHash, TraditionalGrace} {
		a := mustRun(alg, smallCfg(), smallParams(w, 96<<10))
		b := mustRun(alg, smallCfg(), smallParams(w, 96<<10))
		if a.Elapsed != b.Elapsed || a.DiskReads != b.DiskReads || a.DiskWrites != b.DiskWrites {
			t.Errorf("%v: non-deterministic: %v/%d/%d vs %v/%d/%d", alg,
				a.Elapsed, a.DiskReads, a.DiskWrites, b.Elapsed, b.DiskReads, b.DiskWrites)
		}
	}
}

func TestMoreMemoryNeverMuchSlower(t *testing.T) {
	w := smallWorkload(4000, 3)
	for _, alg := range []Algorithm{NestedLoops, SortMerge, Grace} {
		lo := mustRun(alg, smallCfg(), smallParams(w, 64<<10))
		hi := mustRun(alg, smallCfg(), smallParams(w, 1<<20))
		if float64(hi.Elapsed) > 1.10*float64(lo.Elapsed) {
			t.Errorf("%v: high-memory run (%v) much slower than low-memory (%v)",
				alg, hi.Elapsed, lo.Elapsed)
		}
	}
}

func TestNestedLoopsMemorySensitivity(t *testing.T) {
	// Fig 5a: nested loops improves steeply with memory (random S access
	// becomes cached).
	w := smallWorkload(6000, 4)
	lo := mustRun(NestedLoops, smallCfg(), smallParams(w, 64<<10))
	hi := mustRun(NestedLoops, smallCfg(), smallParams(w, 2<<20))
	if float64(lo.Elapsed) < 1.3*float64(hi.Elapsed) {
		t.Errorf("nested loops not memory sensitive: lo=%v hi=%v", lo.Elapsed, hi.Elapsed)
	}
	if hi.DiskReads >= lo.DiskReads {
		t.Errorf("more memory should reduce reads: lo=%d hi=%d", lo.DiskReads, hi.DiskReads)
	}
}

func TestPhasesRecordedInOrder(t *testing.T) {
	w := smallWorkload(2000, 5)
	res := mustRun(SortMerge, smallCfg(), smallParams(w, 96<<10))
	wantOrder := []string{"setup", "pass0", "pass1", "pass2"}
	if len(res.Phases) < len(wantOrder) {
		t.Fatalf("phases: %v", res.Phases)
	}
	var last sim.Time
	for idx, name := range wantOrder {
		if res.Phases[idx].Name != name {
			t.Errorf("phase[%d] = %s, want %s", idx, res.Phases[idx].Name, name)
		}
		if res.Phases[idx].End < last {
			t.Errorf("phase %s ends before its predecessor", name)
		}
		last = res.Phases[idx].End
	}
	if res.Phases[len(res.Phases)-1].Name != "join" {
		t.Errorf("last phase = %s, want join", res.Phases[len(res.Phases)-1].Name)
	}
}

func TestSortMergeParameterRules(t *testing.T) {
	w := smallWorkload(6000, 6)
	cfg := smallCfg()
	mem := int64(96 << 10)
	res := mustRun(SortMerge, cfg, smallParams(w, mem))
	wantIRun := int(mem / (int64(w.Spec.RSize) + int64(cfg.HeapPtrBytes)))
	if res.IRun != wantIRun {
		t.Errorf("IRun = %d, want %d", res.IRun, wantIRun)
	}
	if res.NPass < 1 || res.LRun < 1 {
		t.Errorf("NPass=%d LRun=%d", res.NPass, res.LRun)
	}
	// LRUN must fit the last-pass fan-in limit M/(2B).
	if maxLast := int(mem / (2 * 4096)); res.LRun > maxLast && maxLast >= 2 {
		t.Errorf("LRun=%d exceeds NRUNLAST=%d", res.LRun, maxLast)
	}
}

func TestSortMergeMorePassesWithLessMemory(t *testing.T) {
	w := smallWorkload(8000, 7)
	lo := mustRun(SortMerge, smallCfg(), smallParams(w, 32<<10))
	hi := mustRun(SortMerge, smallCfg(), smallParams(w, 1<<20))
	if lo.NPass <= hi.NPass {
		t.Errorf("NPass lo=%d hi=%d: less memory should need more merge passes", lo.NPass, hi.NPass)
	}
	if hi.NPass != 1 {
		t.Errorf("ample memory should sort in one pass, got NPass=%d", hi.NPass)
	}
}

func TestGraceParameterRules(t *testing.T) {
	w := smallWorkload(6000, 8)
	mem := int64(64 << 10)
	res := mustRun(Grace, smallCfg(), smallParams(w, mem))
	if res.K < 1 {
		t.Fatalf("K = %d", res.K)
	}
	// K must make a bucket (plus fuzz) fit in memory.
	maxRS := 0
	for _, c := range w.RSCounts() {
		if c > maxRS {
			maxRS = c
		}
	}
	bucketBytes := float64(maxRS) * 128 / float64(res.K)
	if 1.2*bucketBytes > float64(mem)+float64(128*res.K) {
		t.Errorf("K=%d leaves bucket of %.0f bytes for %d memory", res.K, bucketBytes, mem)
	}
	if res.TSize < 16 {
		t.Errorf("TSize = %d", res.TSize)
	}
	// More memory ⇒ fewer buckets.
	big := mustRun(Grace, smallCfg(), smallParams(w, 1<<20))
	if big.K > res.K {
		t.Errorf("K with more memory = %d > %d", big.K, res.K)
	}
}

func TestGraceExplicitKAndTSizeHonored(t *testing.T) {
	w := smallWorkload(2000, 9)
	prm := smallParams(w, 128<<10)
	prm.K = 7
	prm.TSize = 64
	res := mustRun(Grace, smallCfg(), prm)
	if res.K != 7 || res.TSize != 64 {
		t.Errorf("K=%d TSize=%d, want 7/64", res.K, res.TSize)
	}
	if sig, _ := w.JoinSignature(); sig != res.Signature {
		t.Error("explicit K/TSIZE changed the join result")
	}
}

func TestStaggeringReducesContention(t *testing.T) {
	// §5.1: the offsets eliminate contention for the S partitions. The
	// naive order should be no faster.
	w := smallWorkload(6000, 10)
	stag := smallParams(w, 96<<10)
	naive := stag
	naive.Stagger = false
	a := mustRun(NestedLoops, smallCfg(), stag)
	b := mustRun(NestedLoops, smallCfg(), naive)
	if a.Signature != b.Signature {
		t.Fatal("staggering changed the join result")
	}
	if float64(a.Elapsed) > 1.02*float64(b.Elapsed) {
		t.Errorf("staggered (%v) slower than naive (%v)", a.Elapsed, b.Elapsed)
	}
}

func TestSyncPhasesCloseToUnsynchronized(t *testing.T) {
	// The paper found ≤ ~0.5% difference with per-phase synchronization
	// under uniform references; allow a few percent here.
	w := smallWorkload(6000, 11)
	plain := smallParams(w, 96<<10)
	synced := plain
	synced.SyncPhases = true
	a := mustRun(NestedLoops, smallCfg(), plain)
	b := mustRun(NestedLoops, smallCfg(), synced)
	if a.Signature != b.Signature {
		t.Fatal("synchronization changed the join result")
	}
	ratio := float64(b.Elapsed) / float64(a.Elapsed)
	if ratio < 0.95 || ratio > 1.10 {
		t.Errorf("sync/unsync elapsed ratio %.3f outside [0.95, 1.10]", ratio)
	}
}

func TestGBufferSizeTradesContextSwitches(t *testing.T) {
	w := smallWorkload(4000, 12)
	small := smallParams(w, 256<<10)
	small.G = 512 // a couple of objects per exchange
	big := smallParams(w, 256<<10)
	big.G = 64 << 10
	a := mustRun(NestedLoops, smallCfg(), small)
	b := mustRun(NestedLoops, smallCfg(), big)
	if a.ContextSwitches <= b.ContextSwitches {
		t.Errorf("small G should cost more context switches: %d vs %d",
			a.ContextSwitches, b.ContextSwitches)
	}
	if a.Signature != b.Signature {
		t.Error("G changed the join result")
	}
}

func TestSkewedWorkloadStillCorrect(t *testing.T) {
	spec := relation.DefaultSpec()
	spec.NR, spec.NS = 3000, 3000
	spec.Dist = relation.HotPartition
	spec.HotFrac = 0.5
	spec.Seed = 13
	w := relation.MustGenerate(spec)
	wantSig, wantPairs := w.JoinSignature()
	for _, alg := range []Algorithm{NestedLoops, SortMerge, Grace} {
		res := mustRun(alg, smallCfg(), smallParams(w, 96<<10))
		if res.Signature != wantSig || res.Pairs != wantPairs {
			t.Errorf("%v wrong result under skew", alg)
		}
	}
}

func TestErrorCases(t *testing.T) {
	w := smallWorkload(2000, 14)
	if _, err := run(NestedLoops, smallCfg(), Params{Workload: nil, MRproc: 1 << 20}); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := run(NestedLoops, smallCfg(), Params{Workload: w, MRproc: 100}); err == nil {
		t.Error("sub-page memory accepted")
	}
	badCfg := smallCfg()
	badCfg.D = 2 // mismatch with workload D=4
	if _, err := run(NestedLoops, badCfg, smallParams(w, 1<<20)); err == nil {
		t.Error("D mismatch accepted")
	}
	if _, err := run(Algorithm(42), smallCfg(), smallParams(w, 1<<20)); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	if NestedLoops.String() != "nested-loops" || SortMerge.String() != "sort-merge" ||
		Grace.String() != "grace" || Algorithm(9).String() == "" {
		t.Error("Algorithm.String broken")
	}
}

func TestSingleDiskDegenerate(t *testing.T) {
	// D=1: no pass 1, no partitioning traffic; all algorithms reduce to
	// their sequential forms and still produce the right join.
	spec := relation.DefaultSpec()
	spec.NR, spec.NS, spec.D = 2000, 2000, 1
	spec.Seed = 15
	w := relation.MustGenerate(spec)
	cfg := smallCfg()
	cfg.D = 1
	wantSig, wantPairs := w.JoinSignature()
	for _, alg := range []Algorithm{NestedLoops, SortMerge, Grace} {
		res := mustRun(alg, cfg, smallParams(w, 128<<10))
		if res.Signature != wantSig || res.Pairs != wantPairs {
			t.Errorf("%v wrong result with D=1", alg)
		}
	}
}

// Property: all three algorithms agree with the canonical join for
// arbitrary seeds, sizes, memory, and distributions.
func TestQuickJoinEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	f := func(seed int64, rawN uint16, rawMem uint8, dist uint8) bool {
		spec := relation.DefaultSpec()
		spec.NR = int(rawN)%3000 + 100
		spec.NS = spec.NR
		spec.Seed = seed
		switch dist % 3 {
		case 1:
			spec.Dist = relation.Local
			spec.LocalFrac = 0.7
		case 2:
			spec.Dist = relation.HotPartition
			spec.HotFrac = 0.3
		}
		w := relation.MustGenerate(spec)
		mem := int64(rawMem)%512*1024 + 8192
		wantSig, wantPairs := w.JoinSignature()
		for _, alg := range []Algorithm{NestedLoops, SortMerge, Grace, HybridHash, TraditionalGrace} {
			res := mustRun(alg, smallCfg(), smallParams(w, mem))
			if res.Signature != wantSig || res.Pairs != wantPairs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestHybridHashMatchesOtherAlgorithms(t *testing.T) {
	w := smallWorkload(4000, 21)
	wantSig, wantPairs := w.JoinSignature()
	for _, mem := range []int64{16 << 10, 96 << 10, 2 << 20} {
		res := mustRun(HybridHash, smallCfg(), smallParams(w, mem))
		if res.Signature != wantSig || res.Pairs != wantPairs {
			t.Errorf("hybrid-hash wrong result at mem=%d", mem)
		}
	}
}

func TestHybridHashDegeneratesWithAmpleMemory(t *testing.T) {
	// With MSproc covering all of S, everything joins immediately:
	// K = 0 overflow buckets, and hybrid beats Grace (no RS traffic).
	w := smallWorkload(6000, 22)
	mem := int64(2 << 20)
	hh := mustRun(HybridHash, smallCfg(), smallParams(w, mem))
	gr := mustRun(Grace, smallCfg(), smallParams(w, mem))
	if hh.K != 0 {
		t.Errorf("K = %d with ample memory, want 0", hh.K)
	}
	if hh.Elapsed >= gr.Elapsed {
		t.Errorf("hybrid (%v) should beat grace (%v) with ample memory", hh.Elapsed, gr.Elapsed)
	}
	if hh.DiskWrites >= gr.DiskWrites {
		t.Errorf("hybrid writes %d, grace writes %d", hh.DiskWrites, gr.DiskWrites)
	}
}

func TestHybridHashConvergesToGraceAtLowMemory(t *testing.T) {
	// With tiny memory the resident fraction vanishes and hybrid's cost
	// approaches Grace's.
	w := smallWorkload(6000, 23)
	mem := int64(12 << 10)
	hh := mustRun(HybridHash, smallCfg(), smallParams(w, mem))
	gr := mustRun(Grace, smallCfg(), smallParams(w, mem))
	ratio := float64(hh.Elapsed) / float64(gr.Elapsed)
	if ratio < 0.8 || ratio > 1.3 {
		t.Errorf("hybrid/grace elapsed ratio %.2f at scarce memory, want ~1", ratio)
	}
}

func TestTraditionalGraceComputesTheSameJoin(t *testing.T) {
	w := smallWorkload(4000, 31)
	wantSig, wantPairs := w.JoinSignature()
	res := mustRun(TraditionalGrace, smallCfg(), smallParams(w, 96<<10))
	if res.Pairs != wantPairs || res.Signature != wantSig {
		t.Errorf("traditional grace: %d pairs sig %x, want %d/%x",
			res.Pairs, res.Signature, wantPairs, wantSig)
	}
}

func TestPointerJoinBeatsTraditional(t *testing.T) {
	// The paper's headline: the virtual-pointer attribute eliminates
	// hashing and repartitioning S, so pointer-based Grace must beat the
	// value-based baseline clearly.
	w := smallWorkload(8000, 32)
	for _, mem := range []int64{64 << 10, 512 << 10} {
		ptr := mustRun(Grace, smallCfg(), smallParams(w, mem))
		trad := mustRun(TraditionalGrace, smallCfg(), smallParams(w, mem))
		if ptr.Signature != trad.Signature {
			t.Fatal("algorithms disagree on the join")
		}
		if float64(trad.Elapsed) < 1.2*float64(ptr.Elapsed) {
			t.Errorf("mem=%d: traditional (%v) should be clearly slower than pointer-based (%v)",
				mem, trad.Elapsed, ptr.Elapsed)
		}
	}
}

func TestResultInvariants(t *testing.T) {
	w := smallWorkload(4000, 41)
	for _, alg := range []Algorithm{NestedLoops, SortMerge, Grace, HybridHash, TraditionalGrace} {
		res := mustRun(alg, smallCfg(), smallParams(w, 96<<10))
		if len(res.PerProc) != 4 {
			t.Fatalf("%v: PerProc has %d entries", alg, len(res.PerProc))
		}
		var max sim.Time
		for i, tm := range res.PerProc {
			if tm <= 0 {
				t.Errorf("%v: PerProc[%d] = %v", alg, i, tm)
			}
			if tm > max {
				max = tm
			}
		}
		if res.Elapsed != max {
			t.Errorf("%v: Elapsed %v != max PerProc %v", alg, res.Elapsed, max)
		}
		// A pager fault either reads disk or zero-fills; disk reads seen
		// by the pagers cannot exceed the drives' totals.
		if res.Faults < res.ZeroFills {
			t.Errorf("%v: faults %d < zero fills %d", alg, res.Faults, res.ZeroFills)
		}
		if res.DiskReads < res.Faults-res.ZeroFills {
			t.Errorf("%v: drive reads %d below pager disk faults %d",
				alg, res.DiskReads, res.Faults-res.ZeroFills)
		}
		if res.Algorithm != alg {
			t.Errorf("Algorithm field = %v", res.Algorithm)
		}
	}
}

func TestTraceRecordsAllProcsAndPhases(t *testing.T) {
	w := smallWorkload(2000, 42)
	prm := smallParams(w, 96<<10)
	reg := metrics.New()
	prm.Metrics = reg
	mustRun(Grace, smallCfg(), prm)
	procs := map[string]int{}
	for _, ev := range reg.Events() {
		procs[ev.Proc]++
	}
	if len(procs) != 4 {
		t.Fatalf("traced %d procs", len(procs))
	}
	for name, n := range procs {
		if n != 4 { // setup, pass0, pass1, probe
			t.Errorf("%s has %d events, want 4", name, n)
		}
	}
}

func TestMetricsCollectedDuringRun(t *testing.T) {
	w := smallWorkload(4000, 44)
	prm := smallParams(w, 64<<10)
	reg := metrics.New()
	prm.Metrics = reg
	prm.MetricsTick = 50 * sim.Millisecond
	res := mustRun(Grace, smallCfg(), prm)

	samples := reg.Samples()
	if len(samples) < 2 {
		t.Fatalf("sampler collected %d samples", len(samples))
	}
	// Sampling must not leak past the end of the run by more than a tick.
	lastAt := samples[len(samples)-1].At
	if lastAt > res.Elapsed+prm.MetricsTick {
		t.Errorf("last sample at %v, run ended %v: sampler not stopped", lastAt, res.Elapsed)
	}
	// Every layer must be represented in the sampled gauges.
	last := samples[len(samples)-1].Values
	var haveDisk, havePager, haveProc bool
	for name := range last {
		switch {
		case strings.HasPrefix(name, "disk0."):
			haveDisk = true
		case strings.HasPrefix(name, "vm.Rproc0."):
			havePager = true
		case strings.HasPrefix(name, "proc.Rproc0."):
			haveProc = true
		}
	}
	if !haveDisk || !havePager || !haveProc {
		t.Errorf("gauges missing a layer: disk=%v pager=%v proc=%v", haveDisk, havePager, haveProc)
	}
	// The last snapshot precedes the final I/Os, so its reads gauge is a
	// positive lower bound on the result's counter.
	var gaugeReads float64
	for name, v := range last {
		if strings.HasSuffix(name, ".reads") {
			gaugeReads += v
		}
	}
	if gaugeReads <= 0 || int64(gaugeReads) > res.DiskReads {
		t.Errorf("summed reads gauges %v outside (0, %d]", gaugeReads, res.DiskReads)
	}
	// Phase events mirror the trace: 4 procs x 4 phases.
	if got := len(reg.Events()); got != 16 {
		t.Errorf("metrics recorded %d phase events, want 16", got)
	}
}

func TestMetricsDoNotPerturbTiming(t *testing.T) {
	// Instrumentation must be an observer: an instrumented run and a plain
	// run are identical in virtual time and I/O.
	w := smallWorkload(2000, 45)
	plain := mustRun(Grace, smallCfg(), smallParams(w, 96<<10))
	prm := smallParams(w, 96<<10)
	prm.Metrics = metrics.New()
	instr := mustRun(Grace, smallCfg(), prm)
	if plain.Elapsed != instr.Elapsed || plain.DiskReads != instr.DiskReads ||
		plain.DiskWrites != instr.DiskWrites || plain.Signature != instr.Signature {
		t.Errorf("instrumented run diverged: %v/%d/%d vs %v/%d/%d",
			instr.Elapsed, instr.DiskReads, instr.DiskWrites,
			plain.Elapsed, plain.DiskReads, plain.DiskWrites)
	}
}

func TestDiskBreakdownSumsToServiceSum(t *testing.T) {
	w := smallWorkload(4000, 46)
	for _, alg := range []Algorithm{NestedLoops, SortMerge, Grace} {
		res := mustRun(alg, smallCfg(), smallParams(w, 64<<10))
		ds := res.Disk
		if sum := ds.SeekTime + ds.RotationTime + ds.TransferTime + ds.OverheadTime; sum != ds.ServiceSum {
			t.Errorf("%v: components sum %v != ServiceSum %v", alg, sum, ds.ServiceSum)
		}
		if ds.Reads != res.DiskReads || ds.Writes != res.DiskWrites {
			t.Errorf("%v: Disk stats %d/%d disagree with DiskReads/Writes %d/%d",
				alg, ds.Reads, ds.Writes, res.DiskReads, res.DiskWrites)
		}
		if ds.ServiceSum <= 0 {
			t.Errorf("%v: no service time recorded", alg)
		}
	}
}

func TestReserveClampedSurfacesScarcity(t *testing.T) {
	w := smallWorkload(6000, 47)
	// One page of memory: hash-table reservations cannot be met.
	tiny := mustRun(Grace, smallCfg(), smallParams(w, 4096))
	if tiny.ReserveClamped == 0 {
		t.Error("one-page run should report clamped reservations")
	}
	// The clamped run must still produce the correct join.
	if sig, pairs := w.JoinSignature(); tiny.Signature != sig || tiny.Pairs != pairs {
		t.Error("clamped run computed a wrong join")
	}
	ample := mustRun(Grace, smallCfg(), smallParams(w, 4<<20))
	if ample.ReserveClamped != 0 {
		t.Errorf("ample-memory run reports %d clamped reservations", ample.ReserveClamped)
	}
}

func TestPhaseIOCumulative(t *testing.T) {
	w := smallWorkload(4000, 43)
	res := mustRun(Grace, smallCfg(), smallParams(w, 64<<10))
	var prevR, prevW int64
	for _, ph := range res.Phases {
		if ph.Reads < prevR || ph.Writes < prevW {
			t.Errorf("phase %s I/O not cumulative: %d/%d after %d/%d",
				ph.Name, ph.Reads, ph.Writes, prevR, prevW)
		}
		prevR, prevW = ph.Reads, ph.Writes
	}
	last := res.Phases[len(res.Phases)-1]
	if last.Reads > res.DiskReads {
		t.Errorf("final phase reads %d exceed total %d", last.Reads, res.DiskReads)
	}
}

func TestRequestValidateFoldsDefaults(t *testing.T) {
	w := smallWorkload(1000, 9)
	req := Request{Algorithm: Grace, Config: smallCfg(), Params: smallParams(w, 96<<10)}
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	if req.MSproc != req.MRproc {
		t.Errorf("MSproc not defaulted: %d", req.MSproc)
	}
	if req.G != int64(smallCfg().B()) {
		t.Errorf("G not defaulted: %d", req.G)
	}
	// Idempotent: validating again changes nothing and still succeeds.
	before := req
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	if req != before {
		t.Error("second Validate changed the request")
	}
	// Unknown algorithms are rejected before any machine is built.
	bad := Request{Algorithm: Algorithm(42), Config: smallCfg(), Params: smallParams(w, 96<<10)}
	if err := bad.Validate(); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
