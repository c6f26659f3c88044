// Command calibrate regenerates the paper's measured machine-dependent
// functions on the simulated hardware: Fig. 1(a), the disk transfer time
// per block (dttr/dttw) versus band size, and Fig. 1(b), the memory
// mapping setup times (newMap/openMap/deleteMap) versus mapping size.
//
// Usage:
//
//	calibrate [-fig 1a|1b|all] [-ops N] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"

	"mmjoin/internal/disk"
	"mmjoin/internal/machine"
	"mmjoin/internal/metrics"
	"mmjoin/internal/seg"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1a, 1b, or all")
	ops := flag.Int("ops", 3000, "random I/Os measured per band size (1a)")
	seed := flag.Int64("seed", 1, "random seed for access patterns")
	metricsPath := flag.String("metrics", "", "export Fig 1(a) per-band service-time telemetry to this JSONL file")
	flag.Parse()

	cfg := machine.DefaultConfig()
	var reg *metrics.Registry
	if *metricsPath != "" {
		reg = metrics.New()
	}
	switch *fig {
	case "1a":
		fig1a(cfg, *ops, *seed, reg)
	case "1b":
		fig1b(cfg)
	case "all":
		fig1a(cfg, *ops, *seed, reg)
		fmt.Println()
		fig1b(cfg)
	default:
		fmt.Fprintf(os.Stderr, "calibrate: unknown figure %q\n", *fig)
		os.Exit(2)
	}
	if reg != nil {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "calibrate:", err)
			os.Exit(1)
		}
		if err := reg.WriteJSONL(f); err != nil {
			fmt.Fprintln(os.Stderr, "calibrate:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\ntelemetry written to %s\n", *metricsPath)
	}
}

func fig1a(cfg machine.Config, ops int, seed int64, reg *metrics.Registry) {
	fmt.Println("Fig 1(a): disk transfer time (ms per 4K block) vs band size")
	fmt.Println("band(blocks)    dttr      dttw")
	for _, pt := range disk.MeasureDTT(cfg.Disk, disk.StandardBands, ops, seed, reg) {
		fmt.Printf("%12d  %6.2f    %6.2f\n", pt.Band, pt.Read.Milliseconds(), pt.Write.Milliseconds())
	}
}

func fig1b(cfg machine.Config) {
	fmt.Println("Fig 1(b): memory mapping setup time (s) vs map size")
	fmt.Println("size(blocks)    newMap   openMap   deleteMap")
	for _, pt := range seg.MeasureSetup(cfg.Disk, cfg.Setup, seg.StandardSetupSizes) {
		if pt.Pages < 1600 {
			continue // the paper plots 1600-12800
		}
		fmt.Printf("%12d  %7.2f  %8.2f  %9.2f\n",
			pt.Pages, pt.New.Seconds(), pt.Open.Seconds(), pt.Delete.Seconds())
	}
}
