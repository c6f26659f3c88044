// Package trace renders the phase events of simulated join executions
// as a text Gantt chart — the view the paper's authors would have used to
// see staggered phases interleave and disks hand work between processes.
// The events are the ones a run records in its metrics.Registry.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"mmjoin/internal/metrics"
)

// Render writes a per-process timeline of evs: one row per process,
// phases laid out proportionally over width columns. Events are ordered
// by time, stably across equal times, without reordering evs itself.
// Events with the same process name share a row; each event label marks
// the END of the segment that precedes it.
func Render(w io.Writer, evs []metrics.Event, width int) error {
	evs = append([]metrics.Event(nil), evs...)
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].At < evs[b].At })
	if len(evs) == 0 {
		_, err := fmt.Fprintln(w, "(no events)")
		return err
	}
	if width < 20 {
		width = 20
	}
	end := evs[len(evs)-1].At
	if end == 0 {
		end = 1
	}
	// Group by process, preserving first-seen order.
	byProc := map[string][]metrics.Event{}
	var order []string
	for _, ev := range evs {
		if _, seen := byProc[ev.Proc]; !seen {
			order = append(order, ev.Proc)
		}
		byProc[ev.Proc] = append(byProc[ev.Proc], ev)
	}
	nameWidth := 0
	for _, name := range order {
		if len(name) > nameWidth {
			nameWidth = len(name)
		}
	}
	for _, name := range order {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		prev := 0
		for idx, ev := range byProc[name] {
			col := int(int64(ev.At) * int64(width-1) / int64(end))
			mark := markFor(idx)
			for c := prev; c <= col && c < width; c++ {
				row[c] = mark
			}
			prev = col + 1
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", nameWidth, name, string(row)); err != nil {
			return err
		}
	}
	// Legend: per process, segment letter -> label @ time.
	if _, err := fmt.Fprintln(w, strings.Repeat("-", nameWidth+width+3)); err != nil {
		return err
	}
	for _, name := range order {
		for idx, ev := range byProc[name] {
			if idx >= maxMarks {
				// Out of distinct marks: say so instead of silently
				// reusing a letter for two different phases.
				if _, err := fmt.Fprintf(w, "%-*s  *: (+%d more segments)\n",
					nameWidth, name, len(byProc[name])-maxMarks); err != nil {
					return err
				}
				break
			}
			if _, err := fmt.Fprintf(w, "%-*s  %c: %-10s ends %v\n",
				nameWidth, name, markFor(idx), ev.Label, ev.At); err != nil {
				return err
			}
		}
	}
	return nil
}

// maxMarks is the number of distinct segment marks: a–z, A–Z, 0–9.
const maxMarks = 62

// markFor returns the unique mark for segment idx, or '*' once the
// alphabet is exhausted (the legend then prints an explicit overflow
// line rather than colliding two phases on one letter).
func markFor(idx int) byte {
	switch {
	case idx < 26:
		return byte('a' + idx)
	case idx < 52:
		return byte('A' + idx - 26)
	case idx < maxMarks:
		return byte('0' + idx - 52)
	}
	return '*'
}
