package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/model"
	"mmjoin/internal/mstore"
	"mmjoin/internal/planner"
	"mmjoin/internal/relation"
)

// calibrationOps is the service's default calibration effort; the
// library workloads calibrate their planner with the same.
const calibrationOps = 800

// layerTimes are the set-up costs of single layers, seconds.
type layerTimes struct {
	create, indexBuild, open, calibrate, serviceNew, split, shardOpen float64
}

// telemetry is one join's JoinTelemetry, read when the join returns.
type telemetry struct {
	tempFiles, restages, restagedRefs, streamProbes, radixPasses, peakTableBytes int64
}

func readTelemetry(t *mstore.JoinTelemetry) telemetry {
	return telemetry{
		tempFiles: t.TempFiles.Load(), restages: t.Restages.Load(), restagedRefs: t.RestagedRefs.Load(),
		streamProbes: t.StreamProbes.Load(), radixPasses: t.RadixPasses.Load(), peakTableBytes: t.PeakTableBytes.Load(),
	}
}

// joinSample is one join as its caller saw it, with what the layers
// below reported about it. Times are nanoseconds; fields a workload or
// an untraced run cannot know stay zero.
type joinSample struct {
	op          int64
	alg         string // as the caller named it: "auto" or an operator
	total       int64  // library: ChooseFor + Run; served: send to last body byte
	chooseNs    int64  // library auto: ChooseFor
	storeNs     int64  // the store's Run / RunShards span
	storeStart  time.Time
	predictedNs int64 // the planner's virtual-time estimate for its pick
	queueNs     int64 // served: the response's queueWaitNs
	elapsedNs   int64 // served: the response's elapsedNs
	shardNs     []int64
	tel         telemetry
	hasTel      bool
}

// phase is what one timed window produced.
type phase struct {
	window            time.Duration
	attempted, failed int64
	pairs             int64 // verified result pairs of all joins
	joins             map[string][]joinSample
	lookups           series // ns per lookup as the caller saw it
	storeLookups      series // ns per lookup at the store boundary (traced)
	lookupOverheads   series // served, traced: client latency − store span
	pool              poolDelta
	admission         admissionDelta
}

// poolDelta is the change of the exec pools' counters over a window.
type poolDelta struct {
	executed, steals int64
	peakBusy         int
}

// admissionDelta is the change of the admission counters over a window.
type admissionDelta struct{ admitted, queued, rejected int64 }

func newPhase() *phase { return &phase{joins: make(map[string][]joinSample)} }

// merge pools another window's samples into p.
func (p *phase) merge(o *phase) {
	p.window += o.window
	p.attempted += o.attempted
	p.failed += o.failed
	p.pairs += o.pairs
	p.lookups = append(p.lookups, o.lookups...)
	p.storeLookups = append(p.storeLookups, o.storeLookups...)
	p.lookupOverheads = append(p.lookupOverheads, o.lookupOverheads...)
	for alg, js := range o.joins {
		p.joins[alg] = append(p.joins[alg], js...)
	}
}

func (p *phase) addJoin(s joinSample) { p.joins[s.alg] = append(p.joins[s.alg], s) }

// totals returns the callers' latencies of one algorithm's joins.
func (p *phase) totals(alg string) series {
	var out series
	for _, s := range p.joins[alg] {
		out = append(out, float64(s.total))
	}
	return out
}

// instance is a set-up workload, ready to be driven.
type instance interface {
	// run drives the workload for at least dur and until it has the
	// sample counts need asks for. An instance set up with a recorder
	// records spans.
	run(dur time.Duration, need minimums) (*phase, error)
	// speedups times each operator at Workers = 1 for about dur
	// (library workloads; nil elsewhere).
	speedups(dur time.Duration) (map[string]series, error)
	expected() mstore.JoinStats
	// corruptExpected flips a bit of the expected signature: every join
	// after it must count as failed (the benchmark's own fault test).
	corruptExpected()
	layers() layerTimes
	close() error
}

// minimums are the sample counts a phase must reach before it may stop.
type minimums struct {
	rounds  int // library
	joins   int // served: per algorithm
	lookups int // served
}

// buildStore creates the workload's source store under dir/src from the
// seed and, for a sharded workload, splits it into dir/shard-k.
func buildStore(s spec, dir string, seed int64, pool *exec.Pool, lt *layerTimes) (*shardDirs, error) {
	src := filepath.Join(dir, "src")
	t0 := time.Now()
	db, err := mstore.CreateDB(src, partitions, s.nr, s.ns, objSize, seed)
	if err != nil {
		return nil, err
	}
	if s.ptrZipf > 0 {
		rewritePointers(db, seed, s.ptrZipf)
	}
	lt.create = time.Since(t0).Seconds()
	if s.indexed && s.shards == 0 {
		t0 = time.Now()
		if err := db.BuildIndexes(context.Background(), pool); err != nil {
			db.Close()
			return nil, err
		}
		lt.indexBuild = time.Since(t0).Seconds()
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	if s.shards == 0 {
		return &shardDirs{src: src}, nil
	}
	return splitStore(s, dir, src, pool, lt)
}

// libInst is a library workload: the benchmark calls planner and mstore
// directly, one caller, joins on a shared pool of GOMAXPROCS workers.
type libInst struct {
	spec   spec
	seed   int64
	db     *mstore.DB
	pool   *exec.Pool
	mcfg   machine.Config
	pl     *planner.Planner
	w      *relation.Workload
	exp    mstore.JoinStats
	table  answers
	lt     layerTimes
	rec    *recorder // nil when untraced
	round  int       // next round of the seeded sequence
	nextOp int64
}

// roundsPerRep spaces the instances of one run apart in the seeded
// sequence of rounds, so a later instance continues it.
const roundsPerRep = 1000

func setupLib(s spec, dir string, seed int64, rep int, rec *recorder) (*libInst, error) {
	in := &libInst{spec: s, seed: seed, rec: rec, round: rep * roundsPerRep, pool: exec.NewPool(runtime.GOMAXPROCS(0))}
	dirs, err := buildStore(s, dir, seed, in.pool, &in.lt)
	if err != nil {
		in.close()
		return nil, err
	}
	t0 := time.Now()
	in.db, err = mstore.OpenDB(dirs.src, partitions)
	if err != nil {
		in.close()
		return nil, err
	}
	in.lt.open = time.Since(t0).Seconds()
	if in.db.HasIndexes() != s.indexed {
		in.close()
		return nil, fmt.Errorf("%s: store indexed=%v, want %v", s.name, in.db.HasIndexes(), s.indexed)
	}

	t0 = time.Now()
	in.mcfg = machine.DefaultConfig()
	in.mcfg.D = partitions
	calib := model.Calibrate(in.mcfg, calibrationOps, 1)
	in.lt.calibrate = time.Since(t0).Seconds()
	var algs []join.Algorithm
	if s.indexed {
		algs = planner.IndexAlgorithms
	}
	in.pl = planner.New(calib, algs)
	if in.w, err = in.db.Workload(); err != nil {
		in.close()
		return nil, err
	}
	in.exp = in.db.ExpectedStats()
	in.table = readAnswers(in.db)

	// One untimed round: first-touch faults, pool start, heap growth.
	if _, err := in.drive(0, minimums{rounds: 1}, nil); err != nil {
		in.close()
		return nil, fmt.Errorf("%s: warm-up: %w", s.name, err)
	}
	return in, nil
}

func (in *libInst) expected() mstore.JoinStats { return in.exp }
func (in *libInst) corruptExpected()           { in.exp.Signature ^= 1 }
func (in *libInst) layers() layerTimes         { return in.lt }

func (in *libInst) run(dur time.Duration, need minimums) (*phase, error) {
	return in.drive(dur, need, in.rec)
}

func (in *libInst) close() error {
	in.pool.Close()
	if in.db == nil {
		return nil
	}
	return in.db.Close()
}

// join runs one operator through DB.Run and checks its answer.
func (in *libInst) join(ph *phase, alg join.Algorithm, pool *exec.Pool) (joinSample, error) {
	tel := &mstore.JoinTelemetry{}
	s := joinSample{alg: alg.String(), storeStart: time.Now()}
	st, err := in.db.Run(mstore.JoinRequest{Algorithm: alg, MRproc: in.spec.mrproc, Pool: pool, Telemetry: tel})
	s.storeNs = time.Since(s.storeStart).Nanoseconds()
	s.total = s.storeNs
	s.tel, s.hasTel = readTelemetry(tel), alg == join.Grace || alg == join.HybridHash
	ph.attempted++
	if err != nil {
		ph.failed++
		return s, fmt.Errorf("%s: %v: %w", in.spec.name, alg, err)
	}
	if st != in.exp {
		ph.failed++
		return s, nil
	}
	ph.pairs += st.Pairs
	return s, nil
}

func (in *libInst) drive(dur time.Duration, need minimums, rec *recorder) (*phase, error) {
	ph := newPhase()
	before := in.pool.Stats()
	results := make([]mstore.LookupResult, blockLookups)
	start := time.Now()
	for r := 0; time.Since(start) < dur || r < need.rounds; r++ {
		plan := in.spec.round(in.seed, in.round)
		in.round++

		// auto: plan, then run the pick, as a caller of the library would.
		in.nextOp++
		op := in.nextOp
		t0 := time.Now()
		choice, err := in.pl.ChooseFor(join.Request{
			Config: in.mcfg,
			Params: join.Params{Workload: in.w, MRproc: in.spec.mrproc},
		})
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("%s: planning: %w", in.spec.name, err)
		}
		s, err := in.join(ph, choice.Best.Algorithm, in.pool)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		s.op, s.alg = op, "auto"
		s.chooseNs, s.total = t1.Sub(t0).Nanoseconds(), t2.Sub(t0).Nanoseconds()
		s.predictedNs = int64(choice.Best.Predicted)
		ph.addJoin(s)
		if rec != nil {
			rec.add(op, slotRoot, -1, "lib.join.auto", t0, t2)
			rec.add(op, slotPlanner, slotRoot, "planner.choose", t0, t1)
			rec.add(op, slotStore, slotRoot, "mstore.run", s.storeStart, s.storeStart.Add(time.Duration(s.storeNs)))
		}

		for _, alg := range plan.ops {
			in.nextOp++
			// The root is timed around the whole call sequence, not copied
			// from the store span, so time spent outside a layer call shows
			// as unattributed.
			t0 := time.Now()
			s, err := in.join(ph, alg, in.pool)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			s.op = in.nextOp
			ph.addJoin(s)
			if rec != nil {
				rec.add(s.op, slotRoot, -1, "lib.join."+s.alg, t0, t1)
				rec.add(s.op, slotStore, slotRoot, "mstore.run", s.storeStart, s.storeStart.Add(time.Duration(s.storeNs)))
			}
		}

		for b := range lookupBlocks {
			keys := plan.keys[b*blockLookups : (b+1)*blockLookups]
			in.nextOp++
			var blockNs int64
			var err error
			if rec == nil {
				blockNs, err = in.lookupBlock(keys, results)
			} else {
				blockNs, err = in.tracedLookupBlock(keys, results, rec, ph)
			}
			if err != nil {
				return nil, err
			}
			ph.lookups = append(ph.lookups, float64(blockNs)/blockLookups)
			// Answers are checked outside the timed block: the table
			// read is a cache miss of its own.
			for i, k := range keys {
				ph.attempted++
				if !in.table.matches(k, results[i]) {
					ph.failed++
				}
			}
		}
	}
	ph.window = time.Since(start)
	after := in.pool.Stats()
	ph.pool = poolDelta{executed: after.Executed - before.Executed, steals: after.Steals - before.Steals, peakBusy: after.PeakBusy}
	return ph, nil
}

func (in *libInst) lookupBlock(keys []key, out []mstore.LookupResult) (int64, error) {
	t0 := time.Now()
	for i, k := range keys {
		res, err := in.db.Lookup(k.part, k.index)
		if err != nil {
			return 0, fmt.Errorf("%s: lookup R%d[%d]: %w", in.spec.name, k.part, k.index, err)
		}
		out[i] = res
	}
	return time.Since(t0).Nanoseconds(), nil
}

// tracedLookupBlock is lookupBlock with a span around every Lookup.
func (in *libInst) tracedLookupBlock(keys []key, out []mstore.LookupResult, rec *recorder, ph *phase) (int64, error) {
	op := in.nextOp
	// The lookups share their marks (a clock read of their own each would
	// cost a quarter of a 100 ns lookup); the root has its own two.
	var marks [blockLookups + 1]time.Time
	rootStart := time.Now()
	marks[0] = time.Now()
	for i, k := range keys {
		res, err := in.db.Lookup(k.part, k.index)
		if err != nil {
			return 0, fmt.Errorf("%s: lookup R%d[%d]: %w", in.spec.name, k.part, k.index, err)
		}
		out[i] = res
		marks[i+1] = time.Now()
	}
	rec.add(op, slotRoot, -1, "lib.lookup_block", rootStart, time.Now())
	for i := range keys {
		rec.add(op, slotLookup+i, slotRoot, "mstore.lookup", marks[i], marks[i+1])
		ph.storeLookups = append(ph.storeLookups, float64(marks[i+1].Sub(marks[i])))
	}
	return marks[blockLookups].Sub(marks[0]).Nanoseconds(), nil
}

// speedups runs every operator on a one-worker pool; with the traced
// phase's run times at GOMAXPROCS workers they give exec.speedup.<op>.
func (in *libInst) speedups(dur time.Duration) (map[string]series, error) {
	one := exec.NewPool(1)
	defer one.Close()
	out := make(map[string]series)
	ph := newPhase()
	start := time.Now()
	// At least two passes: a speed-up is never read off a single join.
	for pass := 0; pass < 2 || time.Since(start) < dur; pass++ {
		for _, alg := range in.spec.ops() {
			s, err := in.join(ph, alg, one)
			if err != nil {
				return nil, err
			}
			out[s.alg] = append(out[s.alg], float64(s.storeNs))
		}
	}
	if ph.failed > 0 {
		return nil, fmt.Errorf("%s: %d of %d one-worker joins gave a wrong answer", in.spec.name, ph.failed, ph.attempted)
	}
	return out, nil
}
