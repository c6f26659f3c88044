package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, per workload and end-to-end metric, B's value
// over A's with its base, and whether B is within the metric's bound of
// A. It reports false when any metric is out.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (seed %d, %s)\nB = %s (seed %d, %s)\n",
		pathA, a.Seed, a.Host.CPUModel, pathB, b.Seed, b.Host.CPUModel)
	fmt.Fprintf(w, "%-13s %-20s %14s %14s %8s %7s %6s\n", "workload", "metric", "A (base)", "B", "B/A", "worse", "bound")
	allIn := true
	for _, s := range specs {
		ra, rb := a.Workloads[s.name].EndToEnd, b.Workloads[s.name].EndToEnd
		if ra == nil || rb == nil {
			return false, fmt.Errorf("%s: missing from one of the files", s.name)
		}
		if ra.ScheduleHash != rb.ScheduleHash {
			fmt.Fprintf(w, "%-13s schedule_hash differs (%s vs %s): the runs had different inputs\n", s.name, ra.ScheduleHash, rb.ScheduleHash)
		}
		for _, d := range endToEnd {
			va, okA := ra.Metrics[d.Name]
			vb, okB := rb.Metrics[d.Name]
			if !okA || !okB || va.Value == 0 {
				return false, fmt.Errorf("%s: %s missing or zero", s.name, d.Name)
			}
			ratio := vb.Value / va.Value
			worse := ratio - 1
			if d.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "IN"
			if worse > d.Bound {
				verdict, allIn = "OUT", false
			}
			fmt.Fprintf(w, "%-13s %-20s %14.6g %14.6g %8.4f %+6.1f%% %5.0f%% %s\n",
				s.name, d.Name, va.Value, vb.Value, ratio, worse*100, d.Bound*100, verdict)
		}
	}
	return allIn, nil
}

func loadResults(path string) (*allResults, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r allResults
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
