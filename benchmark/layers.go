package main

import (
	"fmt"
	"strings"
)

// layerMetrics computes the traced run's metrics and runs the trace's
// self-checks. ref is the untraced reference phase, tr the traced one,
// one the one-worker operator times (library workloads).
func layerMetrics(ms *metricSet, s spec, ref, tr *phase, lt layerTimes, one map[string]series, spans []span) error {
	self, err := selfTimes(spans)
	if err != nil {
		return err
	}

	// mstore: the store's Run span per operator, its lookups, and what
	// the bucketed joins' telemetry counted.
	storeNs := func(op string) series {
		var out series
		for _, j := range tr.joins[op] {
			out = append(out, float64(j.storeNs))
		}
		return out
	}
	for _, op := range opNames(s.ops()) {
		ms.quantile("mstore.run_ms_p50."+op, storeNs(op), 0.5, 1e6)
	}
	lookupLayer := "mstore.lookup_ns_"
	if s.shards > 0 {
		lookupLayer = "shard.lookup_ns_"
	}
	ms.quantile(lookupLayer+"p50", tr.storeLookups, 0.5, 1)
	ms.quantile(lookupLayer+"p99", tr.storeLookups, 0.99, 1)
	var tel telemetry
	bucketed, joins := 0, 0
	for _, js := range tr.joins {
		joins += len(js)
		for _, j := range js {
			if !j.hasTel {
				continue
			}
			bucketed++
			tel.tempFiles += j.tel.tempFiles
			tel.restages += j.tel.restages
			tel.restagedRefs += j.tel.restagedRefs
			tel.streamProbes += j.tel.streamProbes
			tel.radixPasses += j.tel.radixPasses
			tel.peakTableBytes = max(tel.peakTableBytes, j.tel.peakTableBytes)
		}
	}
	if bucketed == 0 || joins == 0 {
		return fmt.Errorf("%s: traced phase ran %d joins, %d of them grace or hybrid-hash", s.name, joins, bucketed)
	}
	perJoin := func(v int64) float64 { return float64(v) / float64(bucketed) }
	ms.set("mstore.temp_files_per_join", perJoin(tel.tempFiles), bucketed)
	ms.set("mstore.restages_per_join", perJoin(tel.restages), bucketed)
	ms.set("mstore.restaged_refs_per_join", perJoin(tel.restagedRefs), bucketed)
	ms.set("mstore.stream_probes_per_join", perJoin(tel.streamProbes), bucketed)
	ms.set("mstore.radix_passes_per_join", perJoin(tel.radixPasses), bucketed)
	ms.set("mstore.peak_table_bytes", float64(tel.peakTableBytes), bucketed)

	// Set-up, layer by layer, where the workload has the step.
	setup := func(name string, v float64) {
		if s.applies(name) {
			ms.set(name, v, 1)
		}
	}
	setup("mstore.create_s", lt.create)
	setup("mstore.index_build_s", lt.indexBuild)
	setup("mstore.open_ms", lt.open*1e3)
	setup("model.calibrate_ms", lt.calibrate*1e3)
	setup("service.new_ms", lt.serviceNew*1e3)
	setup("shard.split_s", lt.split)
	setup("shard.open_ms", lt.shardOpen*1e3)

	// exec: one worker over all workers, and the pools' own counters.
	for _, op := range opNames(s.ops()) {
		if len(one[op]) == 0 {
			continue
		}
		w1, err1 := one[op].quantile(0.5, false)
		wn, errN := storeNs(op).quantile(0.5, false)
		if err1 != nil || errN != nil || wn == 0 {
			return fmt.Errorf("%s: no run times for exec.speedup.%s", s.name, op)
		}
		ms.set("exec.speedup."+op, w1/wn, len(one[op]))
	}
	ms.set("exec.morsels_per_join", float64(tr.pool.executed)/float64(joins), joins)
	ms.set("exec.steals_per_join", float64(tr.pool.steals)/float64(joins), joins)
	ms.set("exec.peak_busy", float64(tr.pool.peakBusy), 0)

	// planner: what choosing costs, how far the pick is from the best
	// operator, and the model's estimate against the wall clock.
	autos := tr.joins["auto"]
	var choose, predict series
	for _, j := range autos {
		if j.chooseNs > 0 {
			choose = append(choose, float64(j.chooseNs))
		}
		actual := j.storeNs
		if s.served {
			actual = j.elapsedNs
		}
		if j.predictedNs > 0 && actual > 0 {
			predict = append(predict, float64(j.predictedNs)/float64(actual))
		}
	}
	for _, sp := range spans {
		if strings.HasPrefix(sp.Name, "planner.choose.") {
			choose = append(choose, float64(sp.End-sp.Start))
		}
	}
	if s.served && s.shards == 0 {
		// The service plans inside its handler, between decoding the
		// request and asking for admission, and only an auto join: what
		// an auto join spends there beyond a named operator's join is the
		// planner. Derived from two medians, not observed.
		before := beforeAdmission(spans)
		var auto, named series
		for alg, js := range tr.joins {
			for _, j := range js {
				ns, ok := before[j.op]
				if !ok {
					return fmt.Errorf("%s: join op %d has no handler and admission spans", s.name, j.op)
				}
				if alg == "auto" {
					auto = append(auto, ns)
				} else {
					named = append(named, ns)
				}
			}
		}
		withPlan, err1 := auto.quantile(0.5, false)
		without, err2 := named.quantile(0.5, false)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("%s: no traced joins to derive planner.choose_us_p50 from", s.name)
		}
		ms.set("planner.choose_us_p50", (withPlan-without)/1e3, len(auto))
	} else {
		ms.quantile("planner.choose_us_p50", choose, 0.5, 1e3)
	}
	ms.quantile("planner.predict_over_actual", predict, 0.5, 1)
	autoMedian, err := tr.totals("auto").quantile(0.5, false)
	if err != nil {
		return fmt.Errorf("%s: auto joins: %w", s.name, err)
	}
	medians, _ := opMedians(ms, s, func(op string) series { return tr.totals(op) })
	if len(medians) > 0 {
		best := medians[0]
		for _, m := range medians {
			best = min(best, m)
		}
		ms.set("planner.regret", autoMedian/best, len(autos))
	}

	if s.served {
		var overhead, wait, all series
		for _, js := range tr.joins {
			for _, j := range js {
				// The store's span lies inside the service's execution
				// span, which lies inside the client's.
				if j.storeNs > j.elapsedNs || j.elapsedNs > j.total {
					return fmt.Errorf("%s: join op %d: store span %d ns, response elapsedNs %d, client span %d ns do not nest",
						s.name, j.op, j.storeNs, j.elapsedNs, j.total)
				}
				overhead = append(overhead, float64(j.total-j.queueNs-j.storeNs))
				wait = append(wait, float64(j.queueNs))
				all = append(all, float64(j.total))
			}
		}
		ms.quantile("service.join_overhead_ms_p50", overhead, 0.5, 1e6)
		ms.quantile("service.lookup_overhead_us_p50", tr.lookupOverheads, 0.5, 1e3)
		ms.quantile("service.lookup_us_p99", tr.lookups, 0.99, 1e3)
		ms.quantile("service.queue_wait_ms_p50", wait, 0.5, 1e6)
		ms.quantile("service.queue_wait_ms_p90", wait, 0.9, 1e6)
		ms.quantile("service.join_ms_p90", all, 0.9, 1e6)
		if asked := tr.admission.admitted + tr.admission.rejected; asked > 0 {
			ms.set("service.queued_share", float64(tr.admission.queued)/float64(asked), int(asked))
			ms.set("service.rejected_share", float64(tr.admission.rejected)/float64(asked), int(asked))
		}
	}

	if s.shards > 0 {
		var slowest, straggler, merge series
		for _, js := range tr.joins {
			for _, j := range js {
				if len(j.shardNs) != s.shards {
					return fmt.Errorf("%s: join op %d reports %d shards, want %d", s.name, j.op, len(j.shardNs), s.shards)
				}
				var top, sum int64
				for _, ns := range j.shardNs {
					top = max(top, ns)
					sum += ns
				}
				slowest = append(slowest, float64(top))
				straggler = append(straggler, float64(top)*float64(s.shards)/float64(sum))
				merge = append(merge, float64(j.storeNs-top))
			}
		}
		ms.quantile("shard.max_shard_ms_p50", slowest, 0.5, 1e6)
		ms.quantile("shard.straggler_ratio_p50", straggler, 0.5, 1)
		ms.quantile("shard.merge_overhead_ms_p50", merge, 0.5, 1e6)
	}

	refMedian, err := ref.totals("auto").quantile(0.5, false)
	if err != nil {
		return fmt.Errorf("%s: reference auto joins: %w", s.name, err)
	}
	ms.set("trace.overhead_share", autoMedian/refMedian-1, len(autos))
	bare := unattributedShare(spans, self)
	ms.set("trace.unattributed_share", bare, len(spans))
	// A library call sequence is all layer calls; more than 5% outside
	// them means a span is missing. (At smoke scale a join is so short
	// that the clock reads around 32,768 lookups outweigh it.)
	if !s.served && ms.strict && bare > 0.05 {
		return fmt.Errorf("%s: %.1f%% of the operations' time lies in no layer span, limit 5%%", s.name, bare*100)
	}

	ms.notApplicable(s.applies)
	return nil
}

// beforeAdmission returns, per served join, the nanoseconds from the
// start of its service.handler span to the start of its
// service.admission span.
func beforeAdmission(spans []span) map[int64]float64 {
	const slotMask = 1<<slotBits - 1
	handler := make(map[int64]int64)
	for _, sp := range spans {
		if sp.ID&slotMask == slotHandler {
			handler[sp.Op] = sp.Start
		}
	}
	out := make(map[int64]float64)
	for _, sp := range spans {
		if start, ok := handler[sp.Op]; ok && sp.ID&slotMask == slotAdmission {
			out[sp.Op] = float64(sp.Start - start)
		}
	}
	return out
}
