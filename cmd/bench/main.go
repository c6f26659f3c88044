// Command bench measures the host-side (wall-clock) performance of the
// simulator and writes a tracked perf baseline, BENCH_sweep.json:
//
//   - wall-clock per point and total for a small Fig. 5(c) panel, run
//     sequentially and with -parallel host workers, with the speedup;
//   - the kernel's event-dispatch rate (events/sec) and its
//     ns/op + allocs/op microbenchmark;
//   - the pre-optimization baselines these numbers are compared against,
//     embedded with the commit they were measured at.
//
// All simulated results are in virtual time and unaffected by any of
// this; bench exists so host-side regressions are caught by diffing the
// committed JSON. The parallel speedup is bounded by the host: on a
// single-CPU container it is ~1x by construction (the JSON records
// GOMAXPROCS and NumCPU so readers can tell).
//
// Usage:
//
//	bench [-objects N] [-parallel N] [-out BENCH_sweep.json]
//	      [-baseline-sweep-ns N]
//
// -baseline-sweep-ns embeds an externally measured pre-optimization
// sequential wall-clock for the same panel (nanoseconds), e.g. timed
// from a worktree at the baseline commit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"mmjoin/internal/core"
	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/relation"
	"mmjoin/internal/sim"
	"mmjoin/internal/sweep"
)

// The pre-optimization baselines, measured with the same harnesses
// (internal/sim and internal/vm bench_test.go, go test -bench -benchmem)
// at the commit below — the tree before the direct-handoff kernel, the
// intrusive-list pager, and the incremental SSTF flusher.
const (
	baselineCommit = "110f26c"

	baselineDispatchPingPongNs     = 1180.0
	baselineDispatchPingPongAllocs = 4
	baselineDispatchSelfNs         = 584.3
	baselineDispatchSelfAllocs     = 2
	baselineTouchFaultEvictNs      = 911.7
	baselineTouchFaultEvictAllocs  = 4
	baselineFlusher4096Ns          = 4312693.0
	baselineFlusher4096Allocs      = 8211
)

// panelFractions is the 4-point Grace plateau panel the sweep timing
// uses: points of similar cost, so worker imbalance does not mask the
// parallel speedup.
var panelFractions = []float64{0.03, 0.04, 0.05, 0.06}

type microbench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// hostInfo stamps every baseline with the machine it was measured on,
// so speedup numbers are read against the CPU count that bounds them.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

func currentHost() hostInfo {
	return hostInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

type report struct {
	Schema string   `json:"schema"`
	Host   hostInfo `json:"host"`
	Sweep  struct {
		Panel           string    `json:"panel"`
		Objects         int       `json:"objects"`
		Fractions       []float64 `json:"fractions"`
		PointSeqNs      []int64   `json:"point_sequential_ns"`
		SequentialNs    int64     `json:"sequential_ns"`
		Parallelism     int       `json:"parallelism"`
		ParallelNs      int64     `json:"parallel_ns"`
		Speedup         float64   `json:"speedup_vs_sequential"`
		BaselineSeqNs   int64     `json:"baseline_sequential_ns,omitempty"`
		SpeedupVsBase   float64   `json:"sequential_speedup_vs_baseline,omitempty"`
		BaselineComment string    `json:"baseline_comment,omitempty"`
	} `json:"sweep"`
	Kernel struct {
		EventsPerSec     float64    `json:"events_per_sec"`
		DispatchPingPong microbench `json:"dispatch_ping_pong"`
		DispatchSelf     microbench `json:"dispatch_self"`
	} `json:"kernel"`
	Baseline struct {
		Commit                 string  `json:"commit"`
		DispatchPingPongNs     float64 `json:"dispatch_ping_pong_ns_per_op"`
		DispatchPingPongAllocs int64   `json:"dispatch_ping_pong_allocs_per_op"`
		DispatchSelfNs         float64 `json:"dispatch_self_ns_per_op"`
		DispatchSelfAllocs     int64   `json:"dispatch_self_allocs_per_op"`
		TouchFaultEvictNs      float64 `json:"vm_touch_fault_evict_ns_per_op"`
		TouchFaultEvictAllocs  int64   `json:"vm_touch_fault_evict_allocs_per_op"`
		Flusher4096Ns          float64 `json:"disk_flusher_batch4096_ns_per_op"`
		Flusher4096Allocs      int64   `json:"disk_flusher_batch4096_allocs_per_op"`
	} `json:"baseline"`
}

func main() {
	objects := flag.Int("objects", 25600, "objects per relation for the timed panel")
	parallel := flag.Int("parallel", 4, "host workers for the parallel sweep timing (>= 1)")
	out := flag.String("out", "", "output path for the sweep JSON baseline (required by the full run)")
	baseSweepNs := flag.Int64("baseline-sweep-ns", 0,
		"externally measured pre-optimization sequential wall-clock for the same panel (ns)")
	msObjects := flag.Int("mstore-objects", 300000, "objects per relation for the mstore join panel")
	msD := flag.Int("mstore-d", 4, "partitions for the mstore join panel")
	msRuns := flag.Int("mstore-runs", 3, "repetitions per mstore panel point (best is kept)")
	msOut := flag.String("mstore-out", "", "output path for the mstore panel baseline (required by the full run, -mstore-only and -shard-only)")
	msOnly := flag.Bool("mstore-only", false, "run only the mstore join panel (CI smoke)")
	msKernels := flag.Bool("mstore-kernels", false,
		"run only the probe-kernel panel (ns-per-pair, allocs-per-pair, cache counters)")
	msKernelObjects := flag.Int("kernel-objects", 25600,
		"objects per relation for the probe-kernel panel")
	msBaseline := flag.String("mstore-baseline", "",
		"checked-in BENCH_mstore.json to gate the kernel panel against (>20% ns-per-pair regression fails)")
	svcObjects := flag.Int("service-objects", 12000, "objects per relation for the service SLO panel")
	svcD := flag.Int("service-d", 4, "partitions for the service SLO panel")
	svcDur := flag.Duration("service-duration", 2*time.Second, "load duration per service sweep point")
	svcSeed := flag.Int64("service-seed", 42, "loadgen seed for the service SLO panel")
	svcOut := flag.String("service-out", "", "output path for the service SLO baseline (required by -service-only)")
	svcOnly := flag.Bool("service-only", false, "run only the service SLO panel")
	shOnly := flag.Bool("shard-only", false, "run only the scatter-gather shard panel (merges into -mstore-out)")
	shObjects := flag.Int("shard-objects", 120000, "objects per relation for the shard panel")
	shCount := flag.Int("shard-count", 3, "shard count for the shard panel")
	flag.Parse()
	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "bench: -parallel must be >= 1, got %d\n", *parallel)
		os.Exit(2)
	}
	// No panel defaults to a tracked path: a run that would write a
	// baseline must be told where, or it refuses before measuring.
	type outFlag struct{ name, path string }
	var needs []outFlag
	switch {
	case *msKernels: // prints and gates; writes nothing
	case *msOnly, *shOnly:
		needs = []outFlag{{"-mstore-out", *msOut}}
	case *svcOnly:
		needs = []outFlag{{"-service-out", *svcOut}}
	default:
		needs = []outFlag{{"-out", *out}, {"-mstore-out", *msOut}}
	}
	for _, f := range needs {
		if f.path == "" {
			fmt.Fprintf(os.Stderr, "bench: %s is required: the selected panel writes a baseline and has no default path\n", f.name)
			os.Exit(2)
		}
	}

	if *msKernels {
		kp, err := runKernelsPanel(*msKernelObjects, *msD, *msRuns)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if *msBaseline != "" {
			if err := checkKernelsBaseline(*msBaseline, kp); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			fmt.Printf("kernel ns-per-pair within 20%% of baseline %s\n", *msBaseline)
		}
		return
	}
	if *msOnly {
		if err := runMstorePanel(*msObjects, *msD, *msRuns, *msKernelObjects, *msOut); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if *msBaseline != "" {
			if err := checkIndexBaseline(*msBaseline, *msOut); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			fmt.Printf("index join ns-per-pair within 20%% of baseline %s\n", *msBaseline)
		}
		return
	}
	if *svcOnly {
		if err := runServicePanel(*svcObjects, *svcD, *svcDur, *svcSeed, *svcOut); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if *shOnly {
		if err := runShardPanel(*shObjects, *msD, *shCount, *msRuns, *msOut); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	var r report
	r.Schema = "mmjoin-bench/v1"
	r.Host = currentHost()

	cfg := machine.DefaultConfig()
	spec := relation.DefaultSpec()
	spec.NR, spec.NS = *objects, *objects
	e, err := core.NewExperiment(cfg, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	r.Sweep.Panel = "fig5c"
	r.Sweep.Objects = *objects
	r.Sweep.Fractions = panelFractions
	r.Sweep.Parallelism = *parallel

	// Per-point and total sequential wall-clock.
	fmt.Fprintf(os.Stderr, "bench: timing %d-point panel sequentially...\n", len(panelFractions))
	for _, f := range panelFractions {
		start := time.Now()
		if _, err := sweep.Memory(e, join.Grace, []float64{f}, sweep.Options{Parallelism: 1}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		r.Sweep.PointSeqNs = append(r.Sweep.PointSeqNs, time.Since(start).Nanoseconds())
	}
	start := time.Now()
	if _, err := sweep.Memory(e, join.Grace, panelFractions, sweep.Options{Parallelism: 1}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	r.Sweep.SequentialNs = time.Since(start).Nanoseconds()

	fmt.Fprintf(os.Stderr, "bench: timing the panel with %d workers...\n", *parallel)
	start = time.Now()
	if _, err := sweep.Memory(e, join.Grace, panelFractions, sweep.Options{Parallelism: *parallel}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	r.Sweep.ParallelNs = time.Since(start).Nanoseconds()
	r.Sweep.Speedup = round2(float64(r.Sweep.SequentialNs) / float64(r.Sweep.ParallelNs))

	if *baseSweepNs > 0 {
		r.Sweep.BaselineSeqNs = *baseSweepNs
		r.Sweep.SpeedupVsBase = round2(float64(*baseSweepNs) / float64(r.Sweep.SequentialNs))
		r.Sweep.BaselineComment = fmt.Sprintf(
			"sequential wall-clock of the same panel at commit %s (pre-optimization)", baselineCommit)
	}

	// Kernel dispatch rate: two processes ping-ponging; every Advance is
	// one dispatched event.
	fmt.Fprintln(os.Stderr, "bench: kernel microbenchmarks...")
	const events = 2_000_000
	k := sim.NewKernel()
	for i := 0; i < 2; i++ {
		k.Spawn("p", func(p *sim.Proc) {
			for j := 0; j < events/2; j++ {
				p.Advance(sim.Microsecond)
			}
		})
	}
	start = time.Now()
	k.Run()
	r.Kernel.EventsPerSec = round2(events / time.Since(start).Seconds())

	r.Kernel.DispatchPingPong = runMicro(func(b *testing.B) {
		k := sim.NewKernel()
		for i := 0; i < 2; i++ {
			k.Spawn("p", func(p *sim.Proc) {
				for j := 0; j < b.N; j++ {
					p.Advance(sim.Microsecond)
				}
			})
		}
		b.ResetTimer()
		k.Run()
	})
	r.Kernel.DispatchSelf = runMicro(func(b *testing.B) {
		k := sim.NewKernel()
		k.Spawn("p", func(p *sim.Proc) {
			for j := 0; j < b.N; j++ {
				p.Advance(sim.Microsecond)
			}
		})
		b.ResetTimer()
		k.Run()
	})

	r.Baseline.Commit = baselineCommit
	r.Baseline.DispatchPingPongNs = baselineDispatchPingPongNs
	r.Baseline.DispatchPingPongAllocs = baselineDispatchPingPongAllocs
	r.Baseline.DispatchSelfNs = baselineDispatchSelfNs
	r.Baseline.DispatchSelfAllocs = baselineDispatchSelfAllocs
	r.Baseline.TouchFaultEvictNs = baselineTouchFaultEvictNs
	r.Baseline.TouchFaultEvictAllocs = baselineTouchFaultEvictAllocs
	r.Baseline.Flusher4096Ns = baselineFlusher4096Ns
	r.Baseline.Flusher4096Allocs = baselineFlusher4096Allocs

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&r); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	f.Close()

	fmt.Printf("panel %s x%d objects=%d: sequential %.2fs, parallel(%d) %.2fs, speedup %.2fx\n",
		r.Sweep.Panel, len(panelFractions), *objects,
		time.Duration(r.Sweep.SequentialNs).Seconds(), *parallel,
		time.Duration(r.Sweep.ParallelNs).Seconds(), r.Sweep.Speedup)
	if r.Sweep.BaselineSeqNs > 0 {
		fmt.Printf("sequential vs %s baseline: %.2fs -> %.2fs (%.2fx)\n", baselineCommit,
			time.Duration(r.Sweep.BaselineSeqNs).Seconds(),
			time.Duration(r.Sweep.SequentialNs).Seconds(), r.Sweep.SpeedupVsBase)
	}
	fmt.Printf("kernel: %.0f events/sec; dispatch ping-pong %.1f ns/op %d allocs/op (baseline %.1f / %d)\n",
		r.Kernel.EventsPerSec, r.Kernel.DispatchPingPong.NsPerOp, r.Kernel.DispatchPingPong.AllocsPerOp,
		baselineDispatchPingPongNs, int64(baselineDispatchPingPongAllocs))
	fmt.Printf("baseline written to %s\n", *out)

	fmt.Fprintln(os.Stderr, "bench: mstore join panel...")
	if err := runMstorePanel(*msObjects, *msD, *msRuns, *msKernelObjects, *msOut); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runMicro runs fn under the testing.Benchmark harness and extracts the
// per-op numbers.
func runMicro(fn func(b *testing.B)) microbench {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return microbench{
		NsPerOp:     round2(float64(res.T.Nanoseconds()) / float64(res.N)),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
}

func round2(x float64) float64 {
	return float64(int64(x*100+0.5)) / 100
}
