package main

import (
	"fmt"
	"sort"
	"strings"

	"mmjoin/internal/join"
)

// metricDef names one metric. BENCHMARK.json carries the same table;
// TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base by which it may worsen
}

// endToEnd are the metrics a caller of the store or the service sees.
// A bound is three times the widest run-to-run spread measured on the
// recorded host, not below the issue's figure and not above the 25% a
// bound may be (README, "Steadiness").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"join_ms_p50", "ms", "lower", 0.25},
	{"join_ops_ms_geomean", "ms", "lower", 0.25},
	{"join_pairs_per_s", "1/s", "higher", 0.25},
	{"lookup_us_p50", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// explicitOps are the operators a caller may name, in join.Algorithm
// order; an unindexed store runs the first four.
var explicitOps = []join.Algorithm{
	join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash,
	join.IndexNL, join.IndexMerge,
}

// perLayer lists the traced run's metrics, outside in.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, op := range explicitOps {
		add("mstore.run_ms_p50."+op.String(), "ms", "lower")
	}
	add("mstore.lookup_ns_p50", "ns", "lower")
	add("mstore.lookup_ns_p99", "ns", "lower")
	add("mstore.temp_files_per_join", "count", "lower")
	add("mstore.restages_per_join", "count", "lower")
	add("mstore.restaged_refs_per_join", "count", "lower")
	add("mstore.stream_probes_per_join", "count", "lower")
	add("mstore.radix_passes_per_join", "count", "lower")
	add("mstore.peak_table_bytes", "bytes", "lower")
	add("mstore.create_s", "s", "lower")
	add("mstore.index_build_s", "s", "lower")
	add("mstore.open_ms", "ms", "lower")
	add("model.calibrate_ms", "ms", "lower")
	add("service.new_ms", "ms", "lower")
	add("shard.split_s", "s", "lower")
	add("shard.open_ms", "ms", "lower")
	for _, op := range explicitOps {
		add("exec.speedup."+op.String(), "ratio", "higher")
	}
	add("exec.morsels_per_join", "count", "lower")
	add("exec.steals_per_join", "count", "lower")
	add("exec.peak_busy", "count", "higher")
	add("planner.choose_us_p50", "us", "lower")
	add("planner.regret", "ratio", "lower")
	add("planner.predict_over_actual", "ratio", "lower")
	add("service.join_overhead_ms_p50", "ms", "lower")
	add("service.lookup_overhead_us_p50", "us", "lower")
	add("service.lookup_us_p99", "us", "lower")
	add("service.queue_wait_ms_p50", "ms", "lower")
	add("service.queue_wait_ms_p90", "ms", "lower")
	add("service.join_ms_p90", "ms", "lower")
	add("service.queued_share", "ratio", "lower")
	add("service.rejected_share", "ratio", "lower")
	add("shard.max_shard_ms_p50", "ms", "lower")
	add("shard.straggler_ratio_p50", "ratio", "lower")
	add("shard.merge_overhead_ms_p50", "ms", "lower")
	add("shard.lookup_ns_p50", "ns", "lower")
	add("shard.lookup_ns_p99", "ns", "lower")
	add("trace.overhead_share", "ratio", "lower")
	add("trace.unattributed_share", "ratio", "lower")
	return defs
}

// metricValue is one reported number. N is the sample count behind a
// timing (0 for counts and ratios of medians). NotApplicable marks a
// layer metric of a layer the workload does not have: the driver's result
// line must carry every metric, so it carries Value 0 there, and this
// flag tells a reader not to take the 0 for a measurement.
type metricValue struct {
	Value         float64 `json:"value"`
	Unit          string  `json:"unit"`
	N             int     `json:"n,omitempty"`
	Bound         float64 `json:"bound,omitempty"`
	NotApplicable bool    `json:"not_applicable,omitempty"`
}

// metricSet collects a run's metrics and insists, at the end, that it
// holds exactly the metrics the run's mode promises.
type metricSet struct {
	defs   map[string]metricDef
	values map[string]metricValue
	strict bool // refuse percentiles the sample count does not support
	errs   []string
}

func newMetricSet(defs []metricDef, strict bool) *metricSet {
	m := &metricSet{defs: make(map[string]metricDef), values: make(map[string]metricValue), strict: strict}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

// errorf records something that must fail the run at finish.
func (m *metricSet) errorf(format string, args ...any) {
	m.errs = append(m.errs, fmt.Sprintf(format, args...))
}

// set records a value under a defined name.
func (m *metricSet) set(name string, v float64, n int) {
	d, ok := m.defs[name]
	if !ok {
		m.errorf("undefined metric %s", name)
		return
	}
	m.values[name] = metricValue{Value: v, Unit: d.Unit, N: n, Bound: d.Bound}
}

// quantile records the q-quantile of samples (given in ns) divided by
// per, e.g. per = 1e6 for a metric in ms.
func (m *metricSet) quantile(name string, samples series, q, per float64) {
	v, err := samples.quantile(q, m.strict)
	if err != nil {
		m.errorf("%s: %v", name, err)
	}
	m.set(name, v/per, len(samples))
}

// notApplicable marks the metrics of layers the workload does not have;
// a value recorded for one of them is a mistake in the program.
func (m *metricSet) notApplicable(applies func(name string) bool) {
	for name, d := range m.defs {
		if applies(name) {
			continue
		}
		if _, ok := m.values[name]; ok {
			m.errorf("%s: recorded, but the workload has no such layer", name)
			continue
		}
		m.values[name] = metricValue{Unit: d.Unit, NotApplicable: true}
	}
}

// finish returns the values, or an error naming everything that went
// wrong: a refused percentile, or a promised metric never set.
func (m *metricSet) finish() (map[string]metricValue, error) {
	for name := range m.defs {
		if _, ok := m.values[name]; !ok {
			m.errorf("metric not emitted: %s", name)
		}
	}
	if len(m.errs) > 0 {
		sort.Strings(m.errs)
		return nil, fmt.Errorf("metrics: %s", strings.Join(m.errs, "; "))
	}
	return m.values, nil
}
