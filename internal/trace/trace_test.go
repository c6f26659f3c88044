package trace

import (
	"strings"
	"testing"

	"mmjoin/internal/metrics"
	"mmjoin/internal/sim"
)

// render renders evs at width and fails the test on an error.
func render(t *testing.T, evs []metrics.Event, width int) string {
	t.Helper()
	var sb strings.Builder
	if err := Render(&sb, evs, width); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func ev(at sim.Time, proc, label string) metrics.Event {
	return metrics.Event{At: at, Proc: proc, Label: label}
}

// TestNilLogIsSafe: a run without a registry has no events, and they
// render as such.
func TestNilLogIsSafe(t *testing.T) {
	var reg *metrics.Registry
	reg.Event(0, "p", "x") // must not panic
	if out := render(t, reg.Events(), 40); !strings.Contains(out, "no events") {
		t.Errorf("output: %q", out)
	}
}

// TestEventsSortedByTime: Render orders events by time, stably across
// equal times, and leaves the caller's slice as it was.
func TestEventsSortedByTime(t *testing.T) {
	evs := []metrics.Event{
		ev(3*sim.Second, "a", "late"),
		ev(1*sim.Second, "a", "early"),
		ev(3*sim.Second, "a", "tie"),
		ev(2*sim.Second, "a", "middle"),
	}
	out := render(t, evs, 40)
	var order []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 5 && f[3] == "ends" {
			order = append(order, f[2])
		}
	}
	if got := strings.Join(order, " "); got != "early middle late tie" {
		t.Errorf("legend order %q:\n%s", got, out)
	}
	if evs[0].Label != "late" || evs[1].Label != "early" {
		t.Errorf("Render reordered its input: %v", evs)
	}
}

func TestRenderEmpty(t *testing.T) {
	if out := render(t, []metrics.Event{}, 40); !strings.Contains(out, "no events") {
		t.Errorf("output: %q", out)
	}
}

func TestRenderRowsAndLegend(t *testing.T) {
	out := render(t, []metrics.Event{
		ev(1*sim.Second, "Rproc0", "setup"),
		ev(4*sim.Second, "Rproc0", "pass0"),
		ev(2*sim.Second, "Rproc1", "setup"),
		ev(4*sim.Second, "Rproc1", "pass0"),
	}, 40)
	for _, want := range []string{"Rproc0 |", "Rproc1 |", "a: setup", "b: pass0"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Segment 'a' of Rproc0 (ends at 1s of 4s) must be about a quarter
	// of the row; count its marks.
	line := strings.SplitN(out, "\n", 2)[0]
	aCount := strings.Count(line, "a")
	if aCount < 5 || aCount > 15 {
		t.Errorf("segment a covers %d of 40 columns: %q", aCount, line)
	}
}

func TestMarkForUnique(t *testing.T) {
	seen := map[byte]bool{}
	for idx := 0; idx < maxMarks; idx++ {
		m := markFor(idx)
		if seen[m] {
			t.Fatalf("mark %q reused at segment %d", m, idx)
		}
		seen[m] = true
	}
	if markFor(0) != 'a' || markFor(25) != 'z' {
		t.Error("first marks should be lowercase letters")
	}
	if markFor(26) != 'A' || markFor(51) != 'Z' {
		t.Error("marks 26-51 should be uppercase letters")
	}
	if markFor(52) != '0' || markFor(61) != '9' {
		t.Error("marks 52-61 should be digits")
	}
	if markFor(maxMarks) != '*' || markFor(maxMarks+100) != '*' {
		t.Error("overflow marks should be '*'")
	}
}

func TestRenderManySegmentsNoCollision(t *testing.T) {
	// Regression: beyond 26 segments the legend reused letters (idx%26),
	// attributing one mark to two different phases. Marks now extend
	// through A-Z and 0-9 and the legend lists each distinctly.
	var evs []metrics.Event
	for i := 0; i < 30; i++ {
		evs = append(evs, ev(sim.Time(i+1)*sim.Second, "p", "seg"))
	}
	out := render(t, evs, 120)
	// Segment 26 must be marked 'A', not wrap to 'a'.
	if !strings.Contains(out, "A: seg") {
		t.Errorf("segment 26 not marked 'A':\n%s", out)
	}
	if strings.Count(out, "a: seg") != 1 {
		t.Errorf("mark 'a' used for more than one legend entry:\n%s", out)
	}
}

func TestRenderLegendOverflowCapped(t *testing.T) {
	var evs []metrics.Event
	for i := 0; i < 70; i++ {
		evs = append(evs, ev(sim.Time(i+1)*sim.Second, "p", "seg"))
	}
	out := render(t, evs, 200)
	if !strings.Contains(out, "(+8 more segments)") {
		t.Errorf("legend should cap 70 segments at 62 marks +8 overflow:\n%s", out)
	}
	// Exactly maxMarks legend entries plus the overflow line.
	if got := strings.Count(out, ": seg"); got != maxMarks {
		t.Errorf("legend lists %d distinct segments, want %d", got, maxMarks)
	}
}

func TestRenderClampssWidth(t *testing.T) {
	if out := render(t, []metrics.Event{ev(sim.Second, "p", "x")}, 1); len(out) == 0 {
		t.Error("no output")
	}
}
