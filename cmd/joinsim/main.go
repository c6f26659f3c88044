// Command joinsim executes a single parallel pointer-based join on the
// simulated memory-mapped machine and prints its phase timings, I/O
// profile, and the analytical model's prediction side by side.
//
// Usage:
//
//	joinsim -alg nested-loops|sort-merge|grace [-mem-frac F] [-objects N]
//	        [-d D] [-g BYTES] [-dist uniform|zipf|local|hot] [-seed N]
//	        [-metrics PATH] [-metrics-tick-ms MS]
//
// With -metrics, the run's telemetry (disk queue depths, arm utilization,
// per-pager fault rates, service-time histograms, phase events) is
// exported to PATH — CSV when the path ends in .csv, JSONL otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mmjoin/internal/core"
	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/metrics"
	"mmjoin/internal/planner"
	"mmjoin/internal/relation"
	"mmjoin/internal/sim"
	"mmjoin/internal/trace"
	"mmjoin/internal/vm"
)

func main() {
	algName := flag.String("alg", "grace", "algorithm: auto (planner-chosen), nested-loops, sort-merge, grace, hybrid-hash")
	memFrac := flag.Float64("mem-frac", 0.05, "MRproc as a fraction of |R| bytes")
	objects := flag.Int("objects", 102400, "objects per relation")
	d := flag.Int("d", 4, "disks / process pairs")
	g := flag.Int64("g", 0, "shared buffer size G in bytes (0: one page)")
	dist := flag.String("dist", "uniform", "reference distribution: uniform, zipf, local, hot")
	seed := flag.Int64("seed", 1, "workload seed")
	noStagger := flag.Bool("no-stagger", false, "disable pass-1 phase staggering")
	policy := flag.String("policy", "lru", "page replacement policy: lru, fifo, clock")
	showTrace := flag.Bool("trace", false, "render a per-process phase timeline")
	sync := flag.Bool("sync", false, "synchronize pass-1 phases (nested loops)")
	metricsPath := flag.String("metrics", "", "export run telemetry to this path (.csv: CSV, otherwise JSONL)")
	metricsTick := flag.Int64("metrics-tick-ms", 0, "gauge sampling interval in virtual ms (0: default 100)")
	flag.Parse()

	var alg join.Algorithm
	auto := *algName == "auto"
	if !auto {
		var ok bool
		alg, ok = parseAlg(*algName)
		if !ok {
			fmt.Fprintf(os.Stderr, "joinsim: unknown algorithm %q\n", *algName)
			os.Exit(2)
		}
	}
	cfg := machine.DefaultConfig()
	cfg.D = *d
	spec := relation.DefaultSpec()
	spec.NR, spec.NS = *objects, *objects
	spec.D = *d
	spec.Seed = *seed
	switch *dist {
	case "uniform":
	case "zipf":
		spec.Dist = relation.Zipf
		spec.ZipfTheta = 1.5
	case "local":
		spec.Dist = relation.Local
		spec.LocalFrac = 0.8
	case "hot":
		spec.Dist = relation.HotPartition
		spec.HotFrac = 0.4
	default:
		fmt.Fprintf(os.Stderr, "joinsim: unknown distribution %q\n", *dist)
		os.Exit(2)
	}

	e, err := core.NewExperiment(cfg, spec)
	if err != nil {
		fatal(err)
	}
	prm := e.ParamsForFraction(*memFrac)
	prm.G = *g
	prm.Stagger = !*noStagger
	prm.SyncPhases = *sync
	switch *policy {
	case "lru":
	case "fifo":
		prm.Policy = vm.FIFO
	case "clock":
		prm.Policy = vm.Clock
	default:
		fmt.Fprintf(os.Stderr, "joinsim: unknown policy %q\n", *policy)
		os.Exit(2)
	}

	if auto {
		// Plan the request before executing it: the planner costs every
		// candidate analytically from the same Request that will run.
		choice, err := planner.New(e.Calib, nil).ChooseFor(e.Request(0, prm))
		if err != nil {
			fatal(err)
		}
		alg = choice.Best.Algorithm
		fmt.Println("planner choice (cheapest first):")
		for _, c := range choice.Candidates {
			fmt.Printf("  %-14s %10.1fs\n", c.Algorithm, c.Predicted.Seconds())
		}
		fmt.Println()
	}

	// The trace draws the phase events the registry records, so -trace
	// attaches one even without -metrics.
	var reg *metrics.Registry
	if *metricsPath != "" || *showTrace {
		reg = metrics.New()
		prm.Metrics = reg
		prm.MetricsTick = sim.Time(*metricsTick) * sim.Millisecond
	}
	cmp, err := e.Compare(alg, prm)
	if err != nil {
		fatal(err)
	}
	res, pred := cmp.Result, cmp.Prediction

	fmt.Printf("%s: |R|=|S|=%d x %dB over D=%d, MRproc=%.3f|R| (%d KB), skew=%.3f\n",
		alg, spec.NR, spec.RSize, spec.D, cmp.MemFrac, prm.MRproc/1024, e.W.Skew())
	fmt.Printf("\nexperiment: %.1fs per Rproc   model: %.1fs   error %+.1f%%\n",
		res.Elapsed.Seconds(), pred.Total.Seconds(), 100*cmp.RelError())

	fmt.Println("\npass completion times (experiment, with cumulative I/O):")
	for _, ph := range res.Phases {
		fmt.Printf("  %-8s %10.1fs   %7d reads %7d writes\n",
			ph.Name, ph.End.Seconds(), ph.Reads, ph.Writes)
	}
	fmt.Println("\nmodel breakdown:")
	for _, comp := range pred.Components {
		fmt.Printf("  %-20s %10.1fs\n", comp.Name, comp.T.Seconds())
	}
	fmt.Printf("\nI/O: %d reads, %d writes; %d faults (%d zero-fill), %d dirty evictions\n",
		res.DiskReads, res.DiskWrites, res.Faults, res.ZeroFills, res.DirtyEvicts)
	ds := res.Disk
	fmt.Printf("disk service: seek %.1fs + rotation %.1fs + transfer %.1fs + overhead %.1fs = %.1fs",
		ds.SeekTime.Seconds(), ds.RotationTime.Seconds(), ds.TransferTime.Seconds(),
		ds.OverheadTime.Seconds(), ds.ServiceSum.Seconds())
	if ds.Stalls > 0 {
		fmt.Printf("   (%d write stalls)", ds.Stalls)
	}
	fmt.Println()
	if res.ReserveClamped > 0 {
		fmt.Printf("warning: %d table reservations were clamped below the plan (memory too small)\n",
			res.ReserveClamped)
	}
	fmt.Printf("join: %d pairs, signature %016x, %d context switches\n",
		res.Pairs, res.Signature, res.ContextSwitches)
	switch alg {
	case join.SortMerge:
		fmt.Printf("plan: IRUN=%d NPASS=%d LRUN=%d; heap ops: %d compares, %d swaps, %d transfers\n",
			res.IRun, res.NPass, res.LRun, res.Heap.Compares, res.Heap.Swaps, res.Heap.Transfers)
	case join.Grace, join.HybridHash:
		fmt.Printf("plan: K=%d TSIZE=%d\n", res.K, res.TSize)
	}
	if *showTrace {
		fmt.Println("\nper-process timeline:")
		if err := trace.Render(os.Stdout, reg.Events(), 72); err != nil {
			fatal(err)
		}
	}
	if *metricsPath != "" {
		if err := writeMetrics(reg, *metricsPath); err != nil {
			fatal(err)
		}
		fmt.Printf("\ntelemetry: %d samples, %d events -> %s\n",
			len(reg.Samples()), len(reg.Events()), *metricsPath)
	}
}

// writeMetrics exports the registry to path, choosing the format from the
// extension: .csv selects the wide gauge table, everything else JSONL.
func writeMetrics(reg *metrics.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		return reg.WriteCSV(f)
	}
	return reg.WriteJSONL(f)
}

func parseAlg(s string) (join.Algorithm, bool) {
	switch s {
	case "nested-loops", "nl":
		return join.NestedLoops, true
	case "sort-merge", "sm":
		return join.SortMerge, true
	case "grace":
		return join.Grace, true
	case "hybrid-hash", "hh":
		return join.HybridHash, true
	}
	return 0, false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "joinsim:", err)
	os.Exit(1)
}
