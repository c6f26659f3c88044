// Optimizer: use the analytical model as a query optimizer's cost
// filter — the application the paper names as the model's most important
// consumer. For a grid of memory budgets, the planner ranks the
// pointer-based joins by the model alone (no execution); a few points
// are then verified against the simulated machine.
//
// Run with: go run ./examples/optimizer
package main

import (
	"fmt"
	"log"

	"mmjoin/internal/core"
	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/model"
	"mmjoin/internal/planner"
	"mmjoin/internal/relation"
	"mmjoin/internal/sim"
)

func main() {
	cfg := machine.DefaultConfig()
	calib := model.Calibrate(cfg, 2000, 1)

	algs := []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace}
	pl := planner.New(calib, algs)

	fmt.Println("model-only plan choice (|R|=|S|=102400 x 128B, D=4):")
	fmt.Println("memory/proc   nested-loops   sort-merge        grace   -> choice")
	fracs := []float64{0.01, 0.02, 0.05, 0.10, 0.20, 0.40, 0.70, 1.20}
	totalBytes := int64(102400 * 128)
	for _, f := range fracs {
		in := model.Inputs{
			NR: 102400, NS: 102400, R: 128, S: 128, Ptr: 8, D: 4,
			MRproc: int64(f * float64(totalBytes)),
		}
		ch, err := pl.Choose(in)
		if err != nil {
			log.Fatal(err)
		}
		predicted := map[join.Algorithm]sim.Time{}
		for _, c := range ch.Candidates {
			predicted[c.Algorithm] = c.Predicted
		}
		fmt.Printf("%8.0f KB  %11.1fs  %11.1fs  %11.1fs   -> %s\n",
			float64(in.MRproc)/1024, predicted[join.NestedLoops].Seconds(),
			predicted[join.SortMerge].Seconds(), predicted[join.Grace].Seconds(), ch.Best.Algorithm)
	}

	// Spot-check the optimizer's picks against the simulated machine at
	// a reduced scale (full runs are seconds each; this keeps the
	// example snappy).
	fmt.Println("\nspot check against the simulated machine (|R|=20000):")
	spec := relation.DefaultSpec()
	spec.NR, spec.NS = 20000, 20000
	e, err := core.NewExperiment(cfg, spec)
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range []float64{0.02, 0.40} {
		fmt.Printf("  memory %.0f KB:\n", f*float64(e.TotalRBytes())/1024)
		best := ""
		var bestT sim.Time = sim.MaxTime
		var predBest string
		var predT sim.Time = sim.MaxTime
		for _, alg := range algs {
			cmp, err := e.Compare(alg, e.ParamsForFraction(f))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("    %-12s measured %7.1fs   model %7.1fs\n",
				alg, cmp.Measured.Seconds(), cmp.Predicted.Seconds())
			if cmp.Measured < bestT {
				bestT, best = cmp.Measured, alg.String()
			}
			if cmp.Predicted < predT {
				predT, predBest = cmp.Predicted, alg.String()
			}
		}
		verdict := "model picked the winner"
		if best != predBest {
			verdict = fmt.Sprintf("model picked %s, measurement favours %s", predBest, best)
		}
		fmt.Printf("    -> %s\n", verdict)
	}
}
