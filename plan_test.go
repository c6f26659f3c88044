package mmjoin

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"mmjoin/internal/conformance"
	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/model"
	"mmjoin/internal/mstore"
	"mmjoin/internal/planner"
	"mmjoin/internal/relation"
	"mmjoin/internal/shard"
)

// mapInputs assembles model.Inputs the way planner.InputsFor did before
// relation.Workload counted its references once: a map per S partition
// for the distinct count and a separate |Ri,j| walk for the skew. It
// reads only Spec and Refs, never the workload's cached statistics.
func mapInputs(req join.Request) model.Inputs {
	w, d := req.Workload, req.Workload.Spec.D
	maxDistinct, skew := 0, 0.0
	for j := 0; j < d; j++ {
		seen := make(map[int32]struct{})
		for _, refs := range w.Refs {
			for _, ptr := range refs {
				if int(ptr.Part) == j {
					seen[ptr.Index] = struct{}{}
				}
			}
		}
		maxDistinct = max(maxDistinct, len(seen))
	}
	for i := 0; i < d; i++ {
		sub := make([]int, d)
		for _, ptr := range w.Refs[i] {
			sub[ptr.Part]++
		}
		expect := float64(w.SizeR(i)) / float64(d)
		for _, c := range sub {
			if v := float64(c) / expect; v > skew {
				skew = v
			}
		}
	}
	return model.Inputs{
		NR: int64(w.Spec.NR), NS: int64(w.Spec.NS),
		R: int64(w.Spec.RSize), S: int64(w.Spec.SSize), Ptr: int64(w.Spec.PtrSize),
		D: d, Skew: skew, DistinctS: int64(maxDistinct),
		MRproc: req.MRproc, G: req.G,
		NRunABL: req.NRunABL, NRunLast: req.NRunLast,
		K: req.K,
	}
}

func planCalib(d int) model.Calibration {
	cfg := machine.DefaultConfig()
	cfg.D = d
	return model.Calibrate(cfg, 100, 1)
}

// TestChooseForMatchesMapBasedStatistics is the contract of counting the
// reference statistics once: on every workload shape the repo plans for,
// the inputs the planner derives and the Choice it returns — candidates,
// order, every Predicted — equal what the map-based walk produced.
func TestChooseForMatchesMapBasedStatistics(t *testing.T) {
	type tc struct {
		name   string
		w      *relation.Workload
		mrproc int64
	}
	var cases []tc
	for _, e := range conformance.Corpus() {
		w := relation.MustGenerate(e.Spec())
		cases = append(cases, tc{"corpus/" + e.Name, w, int64(e.Frac * float64(e.Objects*w.Spec.RSize))})
	}
	spec := func(nr, ns int, mut func(*relation.Spec)) *relation.Workload {
		s := relation.DefaultSpec()
		s.NR, s.NS = nr, ns
		if mut != nil {
			mut(&s)
		}
		return relation.MustGenerate(s)
	}
	cases = append(cases,
		tc{"lib_fit shape", spec(200000, 200000, nil), 1 << 20},
		tc{"lib_spill shape", spec(160000, 40000, func(s *relation.Spec) { s.Dist, s.ZipfTheta = relation.Zipf, 1.1 }), 16 << 10},
		tc{"local", spec(9001, 5002, func(s *relation.Spec) { s.Dist, s.LocalFrac, s.D = relation.Local, 0.8, 3 }), 32 << 10},
		tc{"hot partition", spec(9001, 5002, func(s *relation.Spec) { s.Dist, s.HotFrac = relation.HotPartition, 0.5 }), 32 << 10},
	)

	// A seeded store and each shard of its 3-way split: workloads whose
	// indexes come from mapped S partitions.
	base := t.TempDir()
	srcDir := filepath.Join(base, "src")
	db, err := mstore.CreateDB(srcDir, 4, 2000, 2000, 64, 23)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.BuildIndexes(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	storeW := func(name string, s *mstore.DB) {
		t.Helper()
		w, err := s.Workload()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, tc{name, w, 16 << 10})
	}
	storeW("store", db)
	outs := make([]string, 3)
	for k := range outs {
		outs[k] = filepath.Join(base, fmt.Sprintf("shard-%d", k))
	}
	m, err := shard.Split(srcDir, 4, outs)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range m.Shards {
		sdb, err := mstore.OpenDB(sh.Dir, sh.D)
		if err != nil {
			t.Fatal(err)
		}
		defer sdb.Close()
		storeW("shard "+sh.ID, sdb)
	}

	calibs := map[int]model.Calibration{}
	for _, c := range cases {
		d := c.w.Spec.D
		if _, ok := calibs[d]; !ok {
			calibs[d] = planCalib(d)
		}
		pl := planner.New(calibs[d], planner.IndexAlgorithms)
		req := join.Request{Params: join.Params{Workload: c.w, MRproc: c.mrproc}}
		want := mapInputs(req)
		got, err := planner.InputsFor(req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: InputsFor = %+v, map-based walk gives %+v", c.name, got, want)
		}
		wantChoice, err := pl.Choose(want)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		gotChoice, err := pl.ChooseFor(req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(gotChoice, wantChoice) {
			t.Errorf("%s: ChooseFor picks %v, the map-based inputs give %v",
				c.name, gotChoice.Best.Algorithm, wantChoice.Best.Algorithm)
		}
	}
}

// TestChooseForConcurrentOnFreshWorkload: the first ChooseFor on a
// workload counts its statistics, and a server's first requests arrive
// together. Under -race this is the proof the count is published once.
func TestChooseForConcurrentOnFreshWorkload(t *testing.T) {
	spec := relation.DefaultSpec()
	spec.NR, spec.NS = 20000, 20000
	w := relation.MustGenerate(spec)
	pl := planner.New(planCalib(spec.D), planner.IndexAlgorithms)
	req := join.Request{Params: join.Params{Workload: w, MRproc: 64 << 10}}

	choices := make([]*planner.Choice, 8)
	var wg sync.WaitGroup
	for g := range choices {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := pl.ChooseFor(req)
			if err != nil {
				t.Error(err)
			}
			choices[g] = c
		}()
	}
	wg.Wait()
	want, err := pl.Choose(mapInputs(req))
	if err != nil {
		t.Fatal(err)
	}
	for g, c := range choices {
		if !reflect.DeepEqual(c, want) {
			t.Errorf("goroutine %d: choice %+v, want %+v", g, c, want)
		}
	}
}

// TestChooseForAllocationsDoNotGrowWithNR counts instead of timing: with
// the statistics warm, deriving the inputs costs the same few allocations
// at 20,000 objects as at 200,000, and a whole ChooseFor on the lib_fit
// shape only its candidates and their predictions. (The map-based walk
// made 584 allocations, 2.4 MB, per call at 100,000 objects. How many the
// model itself makes depends on the passes it prices, so only the part
// that reads the workload is compared across sizes.)
func TestChooseForAllocationsDoNotGrowWithNR(t *testing.T) {
	pl := planner.New(planCalib(4), planner.IndexAlgorithms)
	allocs := func(n int) (inputs, choose float64) {
		spec := relation.DefaultSpec()
		spec.NR, spec.NS = n, n
		req := join.Request{Params: join.Params{Workload: relation.MustGenerate(spec), MRproc: 1 << 20}}
		run := func(f func() error) float64 {
			return testing.AllocsPerRun(20, func() { // its warm-up call counts the statistics
				if err := f(); err != nil {
					t.Fatal(err)
				}
			})
		}
		inputs = run(func() error { _, err := planner.InputsFor(req); return err })
		choose = run(func() error { _, err := pl.ChooseFor(req); return err })
		return inputs, choose
	}
	smallIn, _ := allocs(20000)
	largeIn, largeChoose := allocs(200000)
	if smallIn != largeIn || largeIn > 2 {
		t.Errorf("InputsFor allocates %v times at 20,000 objects, %v at 200,000; want equal and at most 2", smallIn, largeIn)
	}
	if largeChoose > 64 {
		t.Errorf("ChooseFor allocates %v times with six candidates at 200,000 objects, want at most 64", largeChoose)
	}
}
