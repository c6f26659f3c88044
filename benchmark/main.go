// Command benchmark is the repo's one yardstick: four closed-loop
// workloads over the mapped store and its serving stack, six bounded
// end-to-end metrics, and a traced run that attributes them to layers.
// README.md in this directory defines every metric and says which layer
// metric should move which end-to-end metric on which workload.
//
//	benchmark -out DIR [-seed N] [-seconds S]            all workloads, untraced then traced
//	benchmark -out DIR -workload W -trace 0|1 [...]      one run (what BENCHMARK.json's command does)
//	benchmark -compare A/results.json B/results.json     ratios against the bounds
//
// It builds its own stores from the seed, drives mstore, planner,
// service and shard only through their public functions and the /v1
// HTTP surface, checks every answer, and writes nothing outside -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// processStart is when this process began; the first set-up is timed
// from here, so setup_s includes what a user waits for before main.
var processStart = time.Now()

// setupReps is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupReps = 3

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	scale    string // "full" or "smoke"
}

// wrongSignature is the benchmark's own fault test, set by the tests
// only: every instance's expected join signature is corrupted, so every
// join must count as failed and the run must exit non-zero.
var wrongSignature bool

func (c runConfig) smoke() bool { return c.scale == "smoke" }

// hostInfo records where a run's numbers come from.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpuModel"`
}

func readHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(raw))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if _, model, ok := strings.Cut(line, ":"); ok && strings.HasPrefix(line, "model name") {
				h.CPUModel = strings.TrimSpace(model)
				break
			}
		}
	}
	return h
}

// runResult is everything one run reports; the file DIR/<workload>.t<trace>.json holds it.
type runResult struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Seconds      float64  `json:"seconds"`
	Trace        bool     `json:"trace"`
	Scale        string   `json:"scale"`
	NR           int      `json:"nr"`
	NS           int      `json:"ns"`
	Callers      int      `json:"callers"`
	ScheduleHash string   `json:"schedule_hash"`
	Host         hostInfo `json:"host"`
	Correct      bool     `json:"correct"`
	Attempted    int64    `json:"attempted"`
	Failed       int64    `json:"failed"`
	// MeasuredS is the sum of the run's timed windows (more than Seconds
	// where a round floor governs, see untraced), WallS the process's life
	// up to the result.
	MeasuredS float64                `json:"measured_s"`
	WallS     float64                `json:"wall_s"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	var trace int
	var compare bool
	fs.StringVar(&cfg.workload, "workload", "", "run one workload (lib_fit, lib_spill, serve_single, serve_shard); empty runs all, untraced then traced")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of pointers, key sequences and operator order")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of one run's measurement")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.StringVar(&cfg.out, "out", "", "directory for stores, results and trace files (required; nothing is written elsewhere)")
	fs.StringVar(&cfg.scale, "scale", "full", "full, or smoke: 2,000 objects and thin percentiles allowed, for tests")
	fs.BoolVar(&compare, "compare", false, "compare two results.json files: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two results.json files"))
		}
		ok, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %v", fs.Args()))
	}
	if trace != 0 && trace != 1 {
		return fail(fmt.Errorf("-trace %d: want 0 or 1", trace))
	}
	cfg.trace = trace == 1
	if cfg.scale != "full" && cfg.scale != "smoke" {
		return fail(fmt.Errorf("-scale %q: want full or smoke", cfg.scale))
	}
	if cfg.out == "" {
		return fail(fmt.Errorf("-out DIR is required"))
	}
	if cfg.seconds <= 0 {
		return fail(fmt.Errorf("-seconds %v: want > 0", cfg.seconds))
	}
	// A closed loop with more callers than processors measures the
	// scheduler's run queue, not the program.
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		return fail(fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d: callers and workers must each fit a processor", p, n))
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return fail(err)
	}
	if cfg.workload == "" {
		if err := runAll(cfg, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return fail(err)
	}
	if err := report(stdout, res); err != nil {
		return fail(err)
	}
	return 0
}

// run is one run of one workload in progress.
type run struct {
	cfg     runConfig
	spec    spec
	callers int
	work    string // the run's stores live here and go when it ends
	res     *runResult
}

// runWorkload sets one workload up, drives it, and computes the metrics
// of the run's mode.
func runWorkload(cfg runConfig) (*runResult, error) {
	s, ok := specByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.smoke() {
		s = s.smoke()
	}
	r := &run{
		cfg: cfg, spec: s, callers: runtime.GOMAXPROCS(0),
		work: filepath.Join(cfg.out, fmt.Sprintf("%s.t%d.work", s.name, b2i(cfg.trace))),
	}
	r.res = &runResult{
		Workload: s.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Scale: cfg.scale,
		NR: s.nr, NS: s.ns, Callers: r.callers, Host: readHost(),
	}
	if err := os.RemoveAll(r.work); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.work)

	mode := r.untraced
	if cfg.trace {
		mode = r.traced
	}
	ms, phases, compute, err := mode()
	if err != nil {
		return nil, err
	}
	res := r.res
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		res.MeasuredS += ph.window.Seconds()
	}
	// A failed operation has no latency to report; the run has no result.
	if res.Failed > 0 || res.Attempted == 0 {
		return nil, fmt.Errorf("%s: %d of %d operations failed (error, refusal or wrong answer)", s.name, res.Failed, res.Attempted)
	}
	res.Correct = true
	if err := compute(); err != nil {
		return nil, err
	}
	if res.Metrics, err = ms.finish(); err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	res.WallS = time.Since(processStart).Seconds()
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s.t%d.json", s.name, b2i(cfg.trace)))
	return res, os.WriteFile(path, append(raw, '\n'), 0o644)
}

// setup builds the rep-th instance of the run: the same stores, and the
// operations that follow the earlier instances'. The first instance
// names the run's inputs.
func (r *run) setup(rec *recorder, rep int) (instance, error) {
	dir := filepath.Join(r.work, fmt.Sprintf("setup-%d", rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var inst instance
	var err error
	if r.spec.served {
		inst, err = setupServe(r.spec, dir, r.cfg.seed, rep, r.callers, rec)
	} else {
		inst, err = setupLib(r.spec, dir, r.cfg.seed, rep, rec)
	}
	if err != nil {
		return nil, err
	}
	if r.res.ScheduleHash == "" {
		r.res.ScheduleHash = r.spec.scheduleHash(r.cfg.seed, r.callers, inst.expected())
	}
	if wrongSignature {
		inst.corruptExpected()
	}
	return inst, nil
}

// teardown closes an instance and deletes its stores.
func (r *run) teardown(inst instance) error {
	err := inst.close()
	if rmErr := os.RemoveAll(r.work); err == nil {
		err = rmErr
	}
	return err
}

// window is share of the run's --seconds.
func (r *run) window(share float64) time.Duration {
	return time.Duration(share * r.cfg.seconds * float64(time.Second))
}

// untraced measures the end-to-end metrics. The run is split over
// setupReps independent set-ups and the samples pooled: setup_s gets
// its median, and a store whose pages happened to land well or badly
// weighs a third. A library set-up measures at least three rounds; on
// lib_spill (2.9 s rounds) that floor, not --seconds, sets the run
// length at run_seconds 20 (README, "Sizes, as run").
func (r *run) untraced() (*metricSet, []*phase, func() error, error) {
	reps, need := setupReps, minimums{rounds: 3, joins: 4, lookups: 400}
	if r.cfg.smoke() {
		reps, need = 1, minimums{rounds: 1, joins: 1, lookups: 10}
	}
	var setupSecs series
	pooled := newPhase()
	for rep := range reps {
		from := time.Now()
		if rep == 0 {
			from = processStart
		}
		inst, err := r.setup(nil, rep)
		if err != nil {
			return nil, nil, nil, err
		}
		setupSecs = append(setupSecs, time.Since(from).Seconds())
		ph, err := inst.run(r.window(1/float64(reps)), need)
		if err != nil {
			inst.close()
			return nil, nil, nil, err
		}
		pooled.merge(ph)
		if err := r.teardown(inst); err != nil {
			return nil, nil, nil, err
		}
	}
	ms := newMetricSet(endToEnd, !r.cfg.smoke())
	compute := func() error { endToEndMetrics(ms, r.spec, pooled, setupSecs); return nil }
	return ms, []*phase{pooled}, compute, nil
}

// traced measures the per-layer metrics: an untraced reference window,
// then the workload set up again with tracing on (the difference is the
// tracing overhead), then the one-worker passes.
func (r *run) traced() (*metricSet, []*phase, func() error, error) {
	refNeed, need := minimums{rounds: 3, joins: 5}, minimums{rounds: 3, joins: 15, lookups: 1000}
	if r.cfg.smoke() {
		refNeed, need = minimums{rounds: 1, joins: 1}, minimums{rounds: 1, joins: 1, lookups: 10}
	}
	refShare, tracedShare, oneShare := 0.35, 0.45, 0.20
	if r.spec.served {
		refShare, tracedShare, oneShare = 0.45, 0.55, 0
	}
	inst, err := r.setup(nil, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	ref, err := inst.run(r.window(refShare), refNeed)
	if err != nil {
		inst.close()
		return nil, nil, nil, err
	}
	if err := r.teardown(inst); err != nil {
		return nil, nil, nil, err
	}
	rec := newRecorder()
	if inst, err = r.setup(rec, 1); err != nil {
		return nil, nil, nil, err
	}
	traced, err := inst.run(r.window(tracedShare), need)
	if err != nil {
		inst.close()
		return nil, nil, nil, err
	}
	oneStart := time.Now()
	one, err := inst.speedups(r.window(oneShare))
	if err != nil {
		inst.close()
		return nil, nil, nil, err
	}
	r.res.MeasuredS += time.Since(oneStart).Seconds()
	lt := inst.layers()
	if err := r.teardown(inst); err != nil {
		return nil, nil, nil, err
	}
	if err := writeTrace(filepath.Join(r.cfg.out, r.spec.name+".trace.jsonl"), rec.spans); err != nil {
		return nil, nil, nil, err
	}
	ms := newMetricSet(perLayer, !r.cfg.smoke())
	compute := func() error { return layerMetrics(ms, r.spec, ref, traced, lt, one, rec.spans) }
	return ms, []*phase{ref, traced}, compute, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// peakRSSMB is getrusage's max RSS of this process (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// endToEndMetrics computes the metrics a caller sees.
func endToEndMetrics(ms *metricSet, s spec, ph *phase, setupSecs series) {
	ms.quantile("setup_s", setupSecs, 0.5, 1)
	ms.quantile("join_ms_p50", ph.totals("auto"), 0.5, 1e6)
	medians, n := opMedians(ms, s, func(op string) series { return ph.totals(op) })
	g, err := geomean(medians)
	if err != nil {
		ms.errorf("join_ops_ms_geomean: %v", err)
	}
	ms.set("join_ops_ms_geomean", g/1e6, n)
	ms.set("join_pairs_per_s", float64(ph.pairs)/ph.window.Seconds(), 0)
	ms.quantile("lookup_us_p50", ph.lookups, 0.5, 1e3)
	ms.set("peak_rss_mb", peakRSSMB(), 0)
}

// opMedians returns the median of each explicit operator's samples (in
// the samples' unit) and the total sample count.
func opMedians(ms *metricSet, s spec, samples func(op string) series) ([]float64, int) {
	var medians []float64
	n := 0
	for _, op := range opNames(s.ops()) {
		v, err := samples(op).quantile(0.5, ms.strict)
		if err != nil {
			ms.errorf("%s: %v", op, err)
			continue
		}
		medians = append(medians, v)
		n += len(samples(op))
	}
	return medians, n
}

// report prints every metric by name with unit, sample count and bound,
// then the one-line JSON object a driver reads.
func report(w io.Writer, res *runResult) error {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s  seed %d  trace %d  scale %s  |R|=%d |S|=%d  callers %d\n",
		res.Workload, res.Seed, b2i(res.Trace), res.Scale, res.NR, res.NS, res.Callers)
	fmt.Fprintf(w, "host nproc=%d GOMAXPROCS=%d %s kernel %s cpu %q\n",
		res.Host.NProc, res.Host.GOMAXPROCS, res.Host.GoVersion, res.Host.Kernel, res.Host.CPUModel)
	fmt.Fprintf(w, "schedule_hash %s\n", res.ScheduleHash)
	fmt.Fprintf(w, "operations attempted %d failed %d\n", res.Attempted, res.Failed)
	fmt.Fprintf(w, "measured %.1f s for --seconds %g, wall %.1f s\n", res.MeasuredS, res.Seconds, res.WallS)
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]valueUnit)}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		line := fmt.Sprintf("  %-36s %16.6g %-6s", d.Name, v.Value, v.Unit)
		if v.NotApplicable {
			line = fmt.Sprintf("  %-36s %16s %-6s the workload has no such layer", d.Name, "n/a", v.Unit)
		}
		if v.N > 0 {
			line += fmt.Sprintf(" n=%d", v.N)
		}
		if d.Bound > 0 {
			line += fmt.Sprintf(" bound=%g %s is better", d.Bound, d.Better)
		}
		fmt.Fprintln(w, line)
		last.Metrics[d.Name] = valueUnit{v.Value, v.Unit}
	}
	raw, err := json.Marshal(last)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(raw))
	return err
}

// allResults is results.json: every workload's untraced and traced run.
type allResults struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Host      hostInfo                   `json:"host"`
	Workloads map[string]workloadResults `json:"workloads"`
}

type workloadResults struct {
	EndToEnd *runResult `json:"end_to_end"`
	PerLayer *runResult `json:"per_layer"`
}

// runAll runs every workload in a child process of its own (so peak RSS
// is per workload), untraced then traced, and writes DIR/results.json.
func runAll(cfg runConfig, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := allResults{Seed: cfg.seed, Seconds: cfg.seconds, Host: readHost(), Workloads: make(map[string]workloadResults)}
	for _, s := range specs {
		var wr workloadResults
		for _, trace := range []int{0, 1} {
			args := []string{
				"-workload", s.name, "-trace", fmt.Sprint(trace), "-seed", fmt.Sprint(cfg.seed),
				"-seconds", fmt.Sprint(cfg.seconds), "-out", cfg.out, "-scale", cfg.scale,
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout = stdout
			cmd.Stderr = stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s -trace %d: %w", s.name, trace, err)
			}
			raw, err := os.ReadFile(filepath.Join(cfg.out, fmt.Sprintf("%s.t%d.json", s.name, trace)))
			if err != nil {
				return err
			}
			res := new(runResult)
			if err := json.Unmarshal(raw, res); err != nil {
				return err
			}
			if trace == 0 {
				wr.EndToEnd = res
			} else {
				wr.PerLayer = res
			}
		}
		all.Workloads[s.name] = wr
	}
	raw, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, "results.json")
	fmt.Fprintln(stdout, "wrote", path)
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
