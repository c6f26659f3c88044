// Package planner is the consumer the paper names for its model: "a
// quantitative model is an essential tool for subsystems such as a query
// optimizer". Given the machine calibration and a join's inputs, the
// planner costs every pointer-based algorithm analytically — microseconds
// of work, no execution — and picks the cheapest, optionally locating the
// memory crossover points where the best plan changes.
//
// Statistics are an input to planning, not part of it: skew and distinct
// references per partition are counted once per relation.Workload, by
// the workload, and a Choose after that touches no reference.
package planner

import (
	"fmt"
	"sort"

	"mmjoin/internal/join"
	"mmjoin/internal/model"
	"mmjoin/internal/sim"
)

// Candidate is one costed plan.
type Candidate struct {
	Algorithm  join.Algorithm
	Predicted  sim.Time
	Prediction *model.Prediction
}

// Choice is the planner's decision: candidates sorted cheapest first.
type Choice struct {
	Best       Candidate
	Candidates []Candidate
}

// Planner costs pointer-based joins with a fixed machine calibration.
type Planner struct {
	calib model.Calibration
	algs  []join.Algorithm
}

// DefaultAlgorithms are the plans considered when none are specified.
var DefaultAlgorithms = []join.Algorithm{
	join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash,
}

// IndexAlgorithms are the plans considered for a store with persistent
// indexes attached: the default set plus the two index paths. Serving
// layers select this set when Store.Stats().Indexed is true, so `auto`
// never routes an index plan at a store that cannot execute it.
var IndexAlgorithms = []join.Algorithm{
	join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash,
	join.IndexNL, join.IndexMerge,
}

// New creates a planner. algs nil selects DefaultAlgorithms.
func New(calib model.Calibration, algs []join.Algorithm) *Planner {
	if algs == nil {
		algs = DefaultAlgorithms
	}
	return &Planner{calib: calib, algs: algs}
}

// predict evaluates one algorithm's model.
func (pl *Planner) predict(alg join.Algorithm, in model.Inputs) (*model.Prediction, error) {
	switch alg {
	case join.NestedLoops:
		return model.PredictNestedLoops(pl.calib, in)
	case join.SortMerge:
		return model.PredictSortMerge(pl.calib, in)
	case join.Grace:
		return model.PredictGrace(pl.calib, in)
	case join.HybridHash:
		return model.PredictHybridHash(pl.calib, in)
	case join.TraditionalGrace:
		return model.PredictTraditionalGrace(pl.calib, in)
	case join.IndexNL:
		return model.PredictIndexNL(pl.calib, in)
	case join.IndexMerge:
		return model.PredictIndexMerge(pl.calib, in)
	}
	return nil, fmt.Errorf("planner: unknown algorithm %v", alg)
}

// InputsFor derives the analytical model's inputs from a fully-specified
// join request: shape and sizes from the workload spec, skew and the
// distinct-reference count as the workload measured them from its
// references (one pass, the first time anyone asks; a read afterwards),
// and every tuning knob copied through. It is the bridge that lets callers
// hand the planner the same Request they would execute, instead of
// hand-assembling model.Inputs.
func InputsFor(req join.Request) (model.Inputs, error) {
	w := req.Workload
	if w == nil {
		return model.Inputs{}, fmt.Errorf("planner: request has no workload")
	}
	spec := w.Spec
	maxDistinct := 0
	for _, n := range w.DistinctRefCounts() {
		if n > maxDistinct {
			maxDistinct = n
		}
	}
	return model.Inputs{
		NR: int64(spec.NR), NS: int64(spec.NS),
		R: int64(spec.RSize), S: int64(spec.SSize), Ptr: int64(spec.PtrSize),
		D:         spec.D,
		Skew:      w.Skew(),
		DistinctS: int64(maxDistinct),
		MRproc:    req.MRproc, G: req.G,
		NRunABL: req.NRunABL, NRunLast: req.NRunLast,
		K: req.K,
	}, nil
}

// ChooseFor costs the request's workload across the planner's candidate
// algorithms (the request's own Algorithm field is ignored — choosing it
// is the point) and returns them cheapest first.
func (pl *Planner) ChooseFor(req join.Request) (*Choice, error) {
	in, err := InputsFor(req)
	if err != nil {
		return nil, err
	}
	return pl.Choose(in)
}

// Choose costs all candidate algorithms for the inputs and returns them
// cheapest first.
func (pl *Planner) Choose(in model.Inputs) (*Choice, error) {
	if len(pl.algs) == 0 {
		return nil, fmt.Errorf("planner: no candidate algorithms")
	}
	cands := make([]Candidate, 0, len(pl.algs))
	for _, alg := range pl.algs {
		pr, err := pl.predict(alg, in)
		if err != nil {
			return nil, err
		}
		cands = append(cands, Candidate{Algorithm: alg, Predicted: pr.Total, Prediction: pr})
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].Predicted < cands[b].Predicted })
	return &Choice{Best: cands[0], Candidates: cands}, nil
}
