package join

import (
	"fmt"

	"mmjoin/internal/machine"
)

// Request is one fully-specified join execution: the algorithm, the
// machine it runs on, and the tuning parameters. It is the package's
// primary entry point; build a Request, then call Run:
//
//	res, err := join.Request{
//		Algorithm: join.Grace,
//		Config:    cfg,
//		Params:    join.Params{Workload: w, MRproc: mem, Stagger: true},
//	}.Run()
//
// Validation and default derivation happen exactly once, in Validate
// (which Run calls on its own copy), so a Request can be costed by the
// planner, logged, and executed without re-deriving options at each
// layer.
type Request struct {
	Algorithm Algorithm
	Config    machine.Config
	Params
}

// Validate checks the request and folds derived defaults into it in
// place (G — the same derivation Run applies). It is
// idempotent; callers that only execute the request need not call it.
func (req *Request) Validate() error {
	switch req.Algorithm {
	case NestedLoops, SortMerge, Grace, HybridHash, TraditionalGrace:
	case IndexNL, IndexMerge:
		return fmt.Errorf("join: %v runs only on the real store's persistent indexes (mstore), not the simulator", req.Algorithm)
	default:
		return fmt.Errorf("join: unknown algorithm %v", req.Algorithm)
	}
	return req.Params.withDefaults(req.Config)
}

// Run executes the request on a fresh machine built from its Config and
// returns the result. The machine, all processes, and all I/O exist only
// for this call; runs are deterministic.
func (req Request) Run() (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	m, err := machine.New(req.Config)
	if err != nil {
		return nil, err
	}
	m.StartMetrics(req.Metrics, req.MetricsTick)
	r := newRunner(m, req.Params)
	switch req.Algorithm {
	case NestedLoops:
		r.runNestedLoops()
	case SortMerge:
		r.runSortMerge()
	case Grace:
		r.runGrace()
	case HybridHash:
		r.runHybridHash()
	case TraditionalGrace:
		r.runTraditionalGrace()
	}
	r.res.Algorithm = req.Algorithm
	return &r.res, nil
}

// MustRun is Run, panicking on error.
func (req Request) MustRun() *Result {
	res, err := req.Run()
	if err != nil {
		panic(err)
	}
	return res
}
