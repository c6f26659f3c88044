// Package core is the library's top-level API: it assembles a workload,
// calibrates the machine's measured functions, executes the parallel
// pointer-based join algorithms on the simulated memory-mapped machine,
// evaluates the analytical model for the same configuration, and compares
// the two — the paper's model-validation methodology (§8) as a reusable
// component. The sweep procedures built on it (the Fig. 5 panels, the
// contention ablation, speedup/scaleup, the distribution study) live in
// internal/sweep.
package core

import (
	"fmt"

	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/model"
	"mmjoin/internal/planner"
	"mmjoin/internal/relation"
	"mmjoin/internal/sim"
)

// Experiment couples a machine configuration, a generated workload, and
// the machine's calibration. It is safe for sequential reuse across many
// Measure/Predict calls (each Measure builds a fresh simulated machine).
type Experiment struct {
	Cfg   machine.Config
	Spec  relation.Spec
	W     *relation.Workload
	Calib model.Calibration
}

// CalibrationOps is the default calibration effort (random I/Os measured
// per band size).
const CalibrationOps = 2000

// NewExperiment generates the workload and calibrates the machine.
func NewExperiment(cfg machine.Config, spec relation.Spec) (*Experiment, error) {
	if cfg.D != spec.D {
		return nil, fmt.Errorf("core: machine D=%d but workload D=%d", cfg.D, spec.D)
	}
	w, err := relation.Generate(spec)
	if err != nil {
		return nil, err
	}
	return &Experiment{
		Cfg:   cfg,
		Spec:  spec,
		W:     w,
		Calib: model.Calibrate(cfg, CalibrationOps, spec.Seed),
	}, nil
}

// TotalRBytes returns |R|·r, the denominator of the paper's memory axis.
func (e *Experiment) TotalRBytes() int64 {
	return int64(e.Spec.NR) * int64(e.Spec.RSize)
}

// ParamsForFraction builds join parameters giving each Rproc (and Sproc)
// frac·|R|·r bytes of private memory — one point on the Fig. 5 x-axis.
func (e *Experiment) ParamsForFraction(frac float64) join.Params {
	return join.Params{
		Workload: e.W,
		MRproc:   int64(frac * float64(e.TotalRBytes())),
		Stagger:  true,
	}
}

// Measure executes the algorithm on a fresh simulated machine.
func (e *Experiment) Measure(alg join.Algorithm, prm join.Params) (*join.Result, error) {
	return e.Request(alg, prm).Run()
}

// Request assembles the fully-specified join request for this
// experiment's machine, defaulting the workload to the experiment's.
func (e *Experiment) Request(alg join.Algorithm, prm join.Params) join.Request {
	if prm.Workload == nil {
		prm.Workload = e.W
	}
	return join.Request{Algorithm: alg, Config: e.Cfg, Params: prm}
}

// Inputs converts join parameters into model inputs, using the measured
// workload skew (delegating to planner.InputsFor, the canonical
// request-to-model bridge).
func (e *Experiment) Inputs(prm join.Params) model.Inputs {
	in, err := planner.InputsFor(e.Request(0, prm))
	if err != nil {
		// Unreachable: Request always attaches the experiment's workload.
		panic(err)
	}
	return in
}

// Predict evaluates the analytical model for the same configuration,
// through the planner's algorithm-to-model dispatch.
func (e *Experiment) Predict(alg join.Algorithm, prm join.Params) (*model.Prediction, error) {
	ch, err := planner.New(e.Calib, []join.Algorithm{alg}).Choose(e.Inputs(prm))
	if err != nil {
		return nil, err
	}
	return ch.Best.Prediction, nil
}

// Comparison is one model-vs-experiment data point.
type Comparison struct {
	Algorithm  join.Algorithm
	MemFrac    float64 // MRproc / (|R|·r)
	Measured   sim.Time
	Predicted  sim.Time
	Result     *join.Result
	Prediction *model.Prediction
}

// RelError returns (predicted−measured)/measured.
func (c Comparison) RelError() float64 {
	if c.Measured == 0 {
		return 0
	}
	return float64(c.Predicted-c.Measured) / float64(c.Measured)
}

// Compare measures and predicts one configuration.
func (e *Experiment) Compare(alg join.Algorithm, prm join.Params) (*Comparison, error) {
	res, err := e.Measure(alg, prm)
	if err != nil {
		return nil, err
	}
	pred, err := e.Predict(alg, prm)
	if err != nil {
		return nil, err
	}
	return &Comparison{
		Algorithm:  alg,
		MemFrac:    float64(prm.MRproc) / float64(e.TotalRBytes()),
		Measured:   res.Elapsed,
		Predicted:  pred.Total,
		Result:     res,
		Prediction: pred,
	}, nil
}

// The Fig. 5 panel fractions and the sweep procedures built on Compare
// (memory sweeps, the §5.1 contention ablation, speedup/scaleup, the
// distribution study) live in internal/sweep.
