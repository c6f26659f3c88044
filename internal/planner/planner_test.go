package planner

import (
	"testing"

	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/model"
	"mmjoin/internal/relation"
)

func testCalib(t *testing.T) model.Calibration {
	t.Helper()
	return model.Calibrate(machine.DefaultConfig(), 800, 1)
}

func inputs(mem int64) model.Inputs {
	return model.Inputs{
		NR: 102400, NS: 102400, R: 128, S: 128, Ptr: 8, D: 4,
		MRproc: mem,
	}
}

func TestChooseSortsCheapestFirst(t *testing.T) {
	pl := New(testCalib(t), nil)
	choice, err := pl.Choose(inputs(512 << 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(choice.Candidates) != len(DefaultAlgorithms) {
		t.Fatalf("%d candidates", len(choice.Candidates))
	}
	for i := 1; i < len(choice.Candidates); i++ {
		if choice.Candidates[i].Predicted < choice.Candidates[i-1].Predicted {
			t.Error("candidates not sorted")
		}
	}
	if choice.Best.Algorithm != choice.Candidates[0].Algorithm {
		t.Error("Best differs from first candidate")
	}
	if choice.Best.Prediction == nil || choice.Best.Predicted <= 0 {
		t.Error("missing prediction detail")
	}
}

func TestChoiceMatchesPaperOrdering(t *testing.T) {
	// At scarce memory hash-based plans beat sort-merge, which beats
	// nested loops (Fig 5's ordering).
	pl := New(testCalib(t), nil)
	choice, err := pl.Choose(inputs(int64(0.03 * 102400 * 128)))
	if err != nil {
		t.Fatal(err)
	}
	best := choice.Best.Algorithm
	if best != join.Grace && best != join.HybridHash {
		t.Errorf("best at scarce memory = %v, want a hash-based plan", best)
	}
	worst := choice.Candidates[len(choice.Candidates)-1].Algorithm
	if worst != join.NestedLoops {
		t.Errorf("worst at scarce memory = %v, want nested-loops", worst)
	}
}

func TestNestedLoopsWinsWithAmpleMemory(t *testing.T) {
	pl := New(testCalib(t), nil)
	choice, err := pl.Choose(inputs(16 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if got := choice.Best.Algorithm; got != join.NestedLoops && got != join.HybridHash {
		t.Errorf("best with ample memory = %v, want an immediate-join plan", got)
	}
	// Between Grace and nested loops alone, the winner hands over from
	// the hash plan to nested loops as memory grows.
	two := New(testCalib(t), []join.Algorithm{join.NestedLoops, join.Grace})
	for _, c := range []struct {
		mem  int64
		want join.Algorithm
	}{{64 << 10, join.Grace}, {16 << 20, join.NestedLoops}} {
		choice, err := two.Choose(inputs(c.mem))
		if err != nil {
			t.Fatal(err)
		}
		if got := choice.Best.Algorithm; got != c.want {
			t.Errorf("{nested loops, Grace} at %d bytes: best = %v, want %v", c.mem, got, c.want)
		}
	}
}

func TestErrors(t *testing.T) {
	pl := New(testCalib(t), []join.Algorithm{join.Algorithm(42)})
	if _, err := pl.Choose(inputs(1 << 20)); err == nil {
		t.Error("unknown algorithm accepted")
	}
	empty := New(testCalib(t), []join.Algorithm{})
	if _, err := empty.Choose(inputs(1 << 20)); err == nil {
		t.Error("empty candidate set accepted")
	}
}

func TestPointerPlansBeatTraditionalAnalytically(t *testing.T) {
	// The model itself should show the pointer advantage the paper
	// claims: with the traditional baseline added as a candidate, a
	// pointer-based plan still wins at any memory level.
	pl := New(testCalib(t), append(append([]join.Algorithm{}, DefaultAlgorithms...), join.TraditionalGrace))
	for _, mem := range []int64{256 << 10, 4 << 20} {
		choice, err := pl.Choose(inputs(mem))
		if err != nil {
			t.Fatal(err)
		}
		if choice.Best.Algorithm == join.TraditionalGrace {
			t.Errorf("mem=%d: traditional plan won", mem)
		}
	}
}

func TestChooseForDerivesInputsFromRequest(t *testing.T) {
	spec := relation.DefaultSpec()
	spec.NR, spec.NS = 8000, 8000
	w := relation.MustGenerate(spec)
	req := join.Request{
		Config: machine.DefaultConfig(),
		Params: join.Params{Workload: w, MRproc: 96 << 10, K: 7},
	}
	in, err := InputsFor(req)
	if err != nil {
		t.Fatal(err)
	}
	if in.NR != 8000 || in.D != spec.D || in.MRproc != 96<<10 || in.K != 7 {
		t.Errorf("derived inputs wrong: %+v", in)
	}
	if in.Skew != w.Skew() {
		t.Errorf("skew not measured from workload: %g vs %g", in.Skew, w.Skew())
	}
	if in.DistinctS <= 0 {
		t.Errorf("DistinctS not derived: %d", in.DistinctS)
	}

	pl := New(testCalib(t), nil)
	choice, err := pl.ChooseFor(req)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := pl.Choose(in)
	if err != nil {
		t.Fatal(err)
	}
	if choice.Best.Algorithm != direct.Best.Algorithm ||
		choice.Best.Predicted != direct.Best.Predicted {
		t.Errorf("ChooseFor disagrees with Choose on the same inputs: %v vs %v",
			choice.Best, direct.Best)
	}

	// A request without a workload cannot be costed.
	if _, err := pl.ChooseFor(join.Request{Config: machine.DefaultConfig()}); err == nil {
		t.Error("workload-less request accepted")
	}
}

// regimeReq builds a real generated-workload request at the given
// per-process memory, the same shape the query service hands ChooseFor.
func regimeReq(t *testing.T, mrproc int64) join.Request {
	t.Helper()
	spec := relation.DefaultSpec()
	spec.NR, spec.NS = 8000, 8000
	w := relation.MustGenerate(spec)
	return join.Request{
		Config: machine.DefaultConfig(),
		Params: join.Params{Workload: w, MRproc: mrproc},
	}
}

// TestChooseForRegimes pins the planner's decision regions on a real
// workload: per-process memory is the axis the paper's Fig. 5 sweeps,
// and the winning plan must move from external partitioned algorithms
// at scarce memory to immediate-join plans when the relation fits.
func TestChooseForRegimes(t *testing.T) {
	pl := New(testCalib(t), nil)
	relBytes := int64(8000 * relation.DefaultSpec().RSize)
	cases := []struct {
		name   string
		mrproc int64
		want   map[join.Algorithm]bool // acceptable best plans
		worst  join.Algorithm          // required most-expensive plan, if any
	}{
		{
			// A few percent of |R|: only external plans are viable and
			// the planner must not pick nested loops, whose working set
			// cannot fit.
			name:   "tiny memory picks an external plan",
			mrproc: relBytes / 50,
			want:   map[join.Algorithm]bool{join.Grace: true, join.HybridHash: true, join.SortMerge: true},
			worst:  join.NestedLoops,
		},
		{
			// Around 10% of |R| the hash-partitioned plans take over
			// (grace, or hybrid once part of the table is resident).
			name:   "moderate memory picks a hash-partitioned plan",
			mrproc: relBytes / 10,
			want:   map[join.Algorithm]bool{join.Grace: true, join.HybridHash: true},
		},
		{
			// Memory beyond |R|: an immediate-join plan wins (nested
			// loops, or hybrid with everything resident) and no external
			// sort can be cheapest.
			name:   "abundant memory picks an immediate plan",
			mrproc: 4 * relBytes,
			want:   map[join.Algorithm]bool{join.NestedLoops: true, join.HybridHash: true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			choice, err := pl.ChooseFor(regimeReq(t, tc.mrproc))
			if err != nil {
				t.Fatal(err)
			}
			if !tc.want[choice.Best.Algorithm] {
				t.Errorf("mrproc=%d: best = %v, want one of %v",
					tc.mrproc, choice.Best.Algorithm, tc.want)
			}
			if tc.worst != 0 {
				got := choice.Candidates[len(choice.Candidates)-1].Algorithm
				if got != tc.worst {
					t.Errorf("mrproc=%d: most expensive = %v, want %v", tc.mrproc, got, tc.worst)
				}
			}
		})
	}
}

// TestIndexAlgorithmsPickIndexPath: with the widened candidate set an
// indexed store's planner must route the dense-probe regime (the
// benchmarked `mmdb join -alg auto` workload) at an index plan, while
// the default set — what an unindexed store's front-end uses — never
// proposes one.
func TestIndexAlgorithmsPickIndexPath(t *testing.T) {
	calib := testCalib(t)
	in := model.Inputs{
		NR: 20480, NS: 20480, R: 128, S: 128, Ptr: 8, D: 4, Skew: 1,
		MRproc: 1 << 20,
	}
	idx := New(calib, IndexAlgorithms)
	choice, err := idx.Choose(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(choice.Candidates) != len(IndexAlgorithms) {
		t.Fatalf("%d candidates, want %d", len(choice.Candidates), len(IndexAlgorithms))
	}
	if best := choice.Best.Algorithm; best != join.IndexNL && best != join.IndexMerge {
		t.Errorf("best with indexes = %v, want an index plan", best)
	}

	def, err := New(calib, nil).Choose(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range def.Candidates {
		if cand.Algorithm == join.IndexNL || cand.Algorithm == join.IndexMerge {
			t.Errorf("default candidate set proposes %v", cand.Algorithm)
		}
	}
}
