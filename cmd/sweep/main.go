// Command sweep regenerates the paper's evaluation experiments on the
// simulated machine:
//
//	sweep -fig 5a          nested loops, model vs experiment (Fig. 5a)
//	sweep -fig 5b          sort-merge, model vs experiment (Fig. 5b)
//	sweep -fig 5c          Grace, model vs experiment (Fig. 5c)
//	sweep -fig all         all three panels
//	sweep -fig contention  §5.1 staggering/synchronization ablation
//	sweep -fig speedup     elapsed time vs D, fixed problem size (§9)
//	sweep -fig scaleup     elapsed time vs D, problem grows with D (§9)
//
// Scale can be reduced for quick runs with -objects. The sweep
// procedures themselves live in internal/sweep; this command only
// parses flags and prints tables.
package main

import (
	"flag"
	"fmt"
	"os"

	"mmjoin/internal/core"
	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/metrics"
	"mmjoin/internal/relation"
	"mmjoin/internal/sweep"
)

// metricsBase, when set, makes the Fig. 5 sweeps export one JSONL
// telemetry file per data point: <base>.<alg>.<frac>.jsonl.
var metricsBase string

func main() {
	fig := flag.String("fig", "all", "experiment: 5a, 5b, 5c, all, contention, speedup, scaleup, hybrid, dist")
	objects := flag.Int("objects", 102400, "objects per relation (paper: 102400)")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.StringVar(&metricsBase, "metrics", "",
		"telemetry base path for the Fig 5 sweeps (writes BASE.<alg>.<frac>.jsonl per point)")
	flag.Parse()

	cfg := machine.DefaultConfig()
	spec := relation.DefaultSpec()
	spec.NR, spec.NS = *objects, *objects
	spec.Seed = *seed

	switch *fig {
	case "5a":
		fig5(cfg, spec, join.NestedLoops)
	case "5b":
		fig5(cfg, spec, join.SortMerge)
	case "5c":
		fig5(cfg, spec, join.Grace)
	case "all":
		fig5(cfg, spec, join.NestedLoops)
		fmt.Println()
		fig5(cfg, spec, join.SortMerge)
		fmt.Println()
		fig5(cfg, spec, join.Grace)
	case "contention":
		contention(cfg, spec)
	case "speedup":
		speedup(cfg, spec)
	case "scaleup":
		scaleup(cfg, spec)
	case "hybrid":
		fig5(cfg, spec, join.HybridHash)
	case "dist":
		dist(cfg, spec)
	default:
		fmt.Fprintf(os.Stderr, "sweep: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

func panel(alg join.Algorithm) string {
	switch alg {
	case join.NestedLoops:
		return "5(a)"
	case join.SortMerge:
		return "5(b)"
	case join.Grace:
		return "5(c)"
	case join.HybridHash:
		return "ext(hybrid)"
	}
	return "?"
}

func fig5(cfg machine.Config, spec relation.Spec, alg join.Algorithm) {
	fmt.Printf("Fig %s: %s — time per Rproc vs MRproc/|R| (model vs experiment)\n", panel(alg), alg)
	e, err := core.NewExperiment(cfg, spec)
	if err != nil {
		fatal(err)
	}
	fmt.Println("MRproc/|R|   experiment(s)    model(s)   error    detail")
	var opts sweep.Fig5Options
	if metricsBase != "" {
		opts.Instrument = func(float64) *metrics.Registry { return metrics.New() }
		opts.OnPoint = func(c core.Comparison, reg *metrics.Registry) error {
			path := fmt.Sprintf("%s.%s.%.3f.jsonl", metricsBase, alg, c.MemFrac)
			return exportJSONL(reg, path)
		}
	}
	pts, err := sweep.Fig5(e, alg, opts)
	if err != nil {
		fatal(err)
	}
	for _, c := range pts {
		detail := ""
		switch alg {
		case join.SortMerge:
			detail = fmt.Sprintf("NPASS=%d LRUN=%d IRUN=%d", c.Result.NPass, c.Result.LRun, c.Result.IRun)
		case join.Grace:
			detail = fmt.Sprintf("K=%d TSIZE=%d", c.Result.K, c.Result.TSize)
		}
		fmt.Printf("%10.3f   %12.1f  %10.1f  %+5.1f%%   %s\n",
			c.MemFrac, c.Measured.Seconds(), c.Predicted.Seconds(), 100*c.RelError(), detail)
	}
}

func contention(cfg machine.Config, spec relation.Spec) {
	fmt.Println("§5.1 ablation: pass-1 phase staggering and synchronization (nested loops)")
	e, err := core.NewExperiment(cfg, spec)
	if err != nil {
		fatal(err)
	}
	pts, err := sweep.Contention(e, 0.10)
	if err != nil {
		fatal(err)
	}
	ref := pts[0].Elapsed
	for _, pt := range pts {
		t := pt.Elapsed.Seconds()
		fmt.Printf("%-36s %10.1fs  (%+.2f%% vs paper variant)\n",
			pt.Name, t, 100*(t-ref.Seconds())/ref.Seconds())
	}
}

func speedup(cfg machine.Config, spec relation.Spec) {
	fmt.Println("§9 extension: speedup — fixed problem, growing D (memory fraction 0.05)")
	ds := []int{1, 2, 4, 8}
	for _, alg := range []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace} {
		times, err := sweep.Speedup(cfg, spec, alg, ds, 0.05)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-12s", alg)
		for _, d := range ds {
			fmt.Printf("  D=%d: %8.1fs (%.2fx)", d, times[d].Seconds(),
				float64(times[1])/float64(times[d]))
		}
		fmt.Println()
	}
}

func scaleup(cfg machine.Config, spec relation.Spec) {
	per := spec.NR / 4
	fmt.Printf("§9 extension: scaleup — %d objects per partition, growing D\n", per)
	ds := []int{1, 2, 4, 8}
	for _, alg := range []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace} {
		times, err := sweep.Scaleup(cfg, spec, alg, ds, per, 0.1)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-12s", alg)
		for _, d := range ds {
			fmt.Printf("  D=%d: %8.1fs (%.2f)", d, times[d].Seconds(),
				float64(times[d])/float64(times[1]))
		}
		fmt.Println()
	}
}

func exportJSONL(reg *metrics.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return reg.WriteJSONL(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}

func dist(cfg machine.Config, spec relation.Spec) {
	fmt.Println("§9 extension: reference-distribution study (memory fraction 0.05)")
	algs := []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash}
	pts, err := sweep.Dist(cfg, spec, algs, 0.05)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-14s %6s", "distribution", "skew")
	for _, alg := range algs {
		fmt.Printf(" %14s", alg)
	}
	fmt.Println()
	for _, pt := range pts {
		fmt.Printf("%-14s %6.2f", pt.Dist, pt.Skew)
		for _, alg := range algs {
			fmt.Printf(" %13.1fs", pt.Measured[alg].Seconds())
		}
		fmt.Println()
	}
}
