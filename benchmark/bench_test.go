package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"mmjoin/internal/mstore"
)

// benchmarkJSON is the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatches pins BENCHMARK.json to the tables the
// program reports from, so neither drifts alone.
func TestBenchmarkJSONMatches(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(specs))
	}
	for i, s := range specs {
		if w := doc.Workloads[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, w.Name, w.Why, s.name, s.why)
		}
		if len(s.why) > 200 || strings.Contains(s.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", s.name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s: name %q outside [A-Za-z0-9_.-]", kind, d.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// lastLine is the object a driver reads from the end of standard output.
type lastLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runSmoke runs one workload at smoke scale in this process.
func runSmoke(t *testing.T, out, workload string, trace int, seed string, extra ...string) (int, lastLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := append([]string{
		"--workload", workload, "--seed", seed, "--seconds", "1", "--trace", fmt.Sprint(trace),
		"-scale", "smoke", "-out", out,
	}, extra...)
	code := realMain(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last lastLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil && code == 0 {
		t.Fatalf("%s trace %d: last line is not the result object: %v\n%s\n%s", workload, trace, err, stdout.String(), stderr.String())
	}
	return code, last, stderr.String()
}

// snapshot records every file under root (size and modification time),
// skipping git's own directory.
func snapshot(t *testing.T, root string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		stamp := info.Mode().String()
		if !d.IsDir() {
			stamp += fmt.Sprintf(" %s %d", info.ModTime().Format(time.RFC3339Nano), info.Size())
		}
		files[path] = stamp
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestSmokeAllWorkloads runs every workload, untraced and traced, at
// smoke scale. Every metric BENCHMARK.json names must come out, nothing
// outside -out may be touched, and the schedule hash must follow the seed.
func TestSmokeAllWorkloads(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	repo, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	serviceDefaultTmp := filepath.Join(os.TempDir(), "mmjoin-serve")
	_, statErr := os.Stat(serviceDefaultTmp)
	tmpExisted := statErr == nil
	before := snapshot(t, repo)
	out := t.TempDir()

	for _, w := range doc.Workloads {
		hashes := make(map[int]string)
		for trace, defs := range [][]jsonMetric{doc.EndToEnd, doc.PerLayer} {
			code, last, stderr := runSmoke(t, out, w.Name, trace, "7")
			if code != 0 {
				t.Fatalf("%s trace %d exited %d: %s", w.Name, trace, code, stderr)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.Name, trace, last.Correct, last.Attempted, last.Failed)
			}
			if len(last.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.Name, trace, len(last.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := last.Metrics[d.Name]
				if !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s missing or unit %q != %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				}
			}
			for name := range last.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q outside [A-Za-z0-9_.-]", w.Name, name)
				}
			}
			raw, err := os.ReadFile(filepath.Join(out, fmt.Sprintf("%s.t%d.json", w.Name, trace)))
			if err != nil {
				t.Fatal(err)
			}
			var res runResult
			if err := json.Unmarshal(raw, &res); err != nil {
				t.Fatal(err)
			}
			s, _ := specByName(w.Name)
			for _, d := range defs {
				if m := res.Metrics[d.Name]; trace == 1 && m.NotApplicable == s.applies(d.Name) {
					t.Errorf("%s: %s not_applicable=%v, but applies=%v", w.Name, d.Name, m.NotApplicable, s.applies(d.Name))
				} else if m.NotApplicable && m.Value != 0 {
					t.Errorf("%s: %s is not applicable and reads %v", w.Name, d.Name, m.Value)
				}
			}
			if res.MeasuredS <= 0 || res.WallS < res.MeasuredS {
				t.Errorf("%s: measured_s %v, wall_s %v", w.Name, res.MeasuredS, res.WallS)
			}
			if res.Host.NProc < 1 || res.Host.GOMAXPROCS < 1 || res.Host.GoVersion == "" {
				t.Errorf("%s: host block incomplete: %+v", w.Name, res.Host)
			}
			hashes[trace] = res.ScheduleHash
		}
		if hashes[0] == "" || hashes[0] != hashes[1] {
			t.Errorf("%s: same seed gave schedule hashes %q and %q", w.Name, hashes[0], hashes[1])
		}
		if info, err := os.Stat(filepath.Join(out, w.Name+".trace.jsonl")); err != nil || info.Size() == 0 {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}

	if after := snapshot(t, repo); !reflect.DeepEqual(before, after) {
		for path, stamp := range after {
			if before[path] != stamp {
				t.Errorf("created or modified outside -out: %s", path)
			}
		}
		for path := range before {
			if _, ok := after[path]; !ok {
				t.Errorf("deleted outside -out: %s", path)
			}
		}
	}
	if _, err := os.Stat(serviceDefaultTmp); err == nil && !tmpExisted {
		t.Errorf("the service's default spill directory %s was created", serviceDefaultTmp)
	}
	if left, _ := filepath.Glob(filepath.Join(out, "*.work")); len(left) > 0 {
		t.Errorf("stores left behind: %v", left)
	}
}

// TestScheduleHashFollowsSeed: the seed drives pointers (through the
// expected join result), key sequences and operator order.
func TestScheduleHashFollowsSeed(t *testing.T) {
	exp := mstore.JoinStats{Pairs: 1000, Signature: 42}
	for _, s := range specs {
		a, b, c := s.scheduleHash(7, 2, exp), s.scheduleHash(7, 2, exp), s.scheduleHash(8, 2, exp)
		if a != b {
			t.Errorf("%s: same seed, hashes %s and %s", s.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 share hash %s", s.name, a)
		}
		if d := s.scheduleHash(7, 2, mstore.JoinStats{Pairs: 1000, Signature: 43}); a == d {
			t.Errorf("%s: different stored pointers share hash %s", s.name, a)
		}
	}
	// And end to end: another seed writes other pointers.
	out := t.TempDir()
	hash := func(seed string) string {
		if code, _, stderr := runSmoke(t, out, "lib_spill", 0, seed); code != 0 {
			t.Fatalf("seed %s exited %d: %s", seed, code, stderr)
		}
		raw, err := os.ReadFile(filepath.Join(out, "lib_spill.t0.json"))
		if err != nil {
			t.Fatal(err)
		}
		var res runResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		return res.ScheduleHash
	}
	if a, b := hash("7"), hash("8"); a == b {
		t.Errorf("seeds 7 and 8 share schedule hash %s", a)
	}
}

// TestWrongSignatureFails: a run whose expected signature is wrong must
// count its joins as failed, print no result and exit non-zero.
func TestWrongSignatureFails(t *testing.T) {
	wrongSignature = true
	defer func() { wrongSignature = false }()
	for _, w := range []string{"lib_fit", "serve_shard"} {
		code, last, stderr := runSmoke(t, t.TempDir(), w, 0, "7")
		if code == 0 || last.Correct {
			t.Errorf("%s: exit code %d, correct=%v with a wrong expected signature", w, code, last.Correct)
		}
		if !strings.Contains(stderr, "operations failed") {
			t.Errorf("%s: stderr does not say why: %q", w, stderr)
		}
	}
}

// TestRefusesMoreProcsThanCPUs: callers and workers are GOMAXPROCS, and
// more of them than processors would time the run queue.
func TestRefusesMoreProcsThanCPUs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	code, _, stderr := runSmoke(t, t.TempDir(), "lib_fit", 0, "7")
	if code == 0 || !strings.Contains(stderr, "GOMAXPROCS") {
		t.Errorf("exit %d, stderr %q: want a refusal naming GOMAXPROCS", code, stderr)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1 << slotBits, Op: 1, Name: "root", Start: 0, End: 100},
		{ID: 1<<slotBits | 1, Op: 1, Name: "a", Start: 10, End: 40, Parent: 1 << slotBits},
		{ID: 1<<slotBits | 2, Op: 1, Name: "b", Start: 30, End: 60, Parent: 1 << slotBits}, // overlaps a: parallel children
		{ID: 1<<slotBits | 3, Op: 1, Name: "c", Start: 35, End: 38, Parent: 1<<slotBits | 2},
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{1 << slotBits: 50, 1<<slotBits | 1: 30, 1<<slotBits | 2: 27, 1<<slotBits | 3: 3}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if got := unattributedShare(spans, self); got != 0.5 {
		t.Errorf("unattributed share %v, want 0.5", got)
	}
	sticking := append(append([]span(nil), spans...), span{ID: 99, Op: 1, Name: "late", Start: 90, End: 110, Parent: 1 << slotBits})
	if _, err := selfTimes(sticking); err == nil {
		t.Error("a child ending after its parent passed the self-check")
	}
	orphan := append(append([]span(nil), spans...), span{ID: 98, Op: 1, Name: "orphan", Start: 1, End: 2, Parent: 12345})
	if _, err := selfTimes(orphan); err == nil {
		t.Error("a span with an unrecorded parent passed the self-check")
	}
}

func TestCompare(t *testing.T) {
	write := func(dir string, scale float64) string {
		all := allResults{Seed: 1, Workloads: make(map[string]workloadResults)}
		for _, s := range specs {
			res := &runResult{Workload: s.name, ScheduleHash: "h", Metrics: make(map[string]metricValue)}
			for _, d := range endToEnd {
				v := 100.0
				if d.Name == "join_ms_p50" || d.Name == "join_pairs_per_s" {
					v *= scale
				}
				res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit, Bound: d.Bound}
			}
			all.Workloads[s.name] = workloadResults{EndToEnd: res}
		}
		raw, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "results.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write(t.TempDir(), 1)
	var buf bytes.Buffer
	// Same numbers: everything IN.
	if ok, err := compareFiles(&buf, base, write(t.TempDir(), 1)); err != nil || !ok || strings.Contains(buf.String(), "OUT") {
		t.Errorf("A/A compare: ok=%v err=%v\n%s", ok, err, buf.String())
	}
	// 30% up: the latency is OUT (lower is better), the throughput IN.
	buf.Reset()
	ok, err := compareFiles(&buf, base, write(t.TempDir(), 1.3))
	if err != nil || ok {
		t.Errorf("compare with a 30%% slower join: ok=%v err=%v", ok, err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.Contains(line, "join_ms_p50") && !strings.HasSuffix(line, "OUT"):
			t.Errorf("a 30%% slower join is not OUT: %s", line)
		case strings.Contains(line, "join_pairs_per_s") && !strings.HasSuffix(line, "IN"):
			t.Errorf("a 30%% higher throughput is not IN: %s", line)
		}
	}
	// 30% down: now the throughput is OUT.
	buf.Reset()
	if ok, _ := compareFiles(&buf, base, write(t.TempDir(), 0.7)); ok || !strings.Contains(buf.String(), "OUT") {
		t.Errorf("compare with 30%% lower throughput reported all IN:\n%s", buf.String())
	}
	if code := realMain([]string{"-compare", base}, &buf, &buf); code == 0 {
		t.Error("-compare with one file exited 0")
	}
}
