// Package metrics is a lightweight observability registry for the
// simulated machine: counters, callback gauges, sim-time histograms, the
// phase-event stream internal/trace renders, and a virtual-time sampler
// that snapshots every registered gauge on a fixed tick. The collected
// telemetry exports as JSONL or CSV (see export.go).
//
// All instrumentation is zero-cost when no registry is attached: a nil
// *Registry hands out nil *Counter/*Histogram values whose methods are
// no-ops. Hot paths therefore record unconditionally and pay only a nil
// check when observability is off.
package metrics

import (
	"mmjoin/internal/sim"
)

// Counter is a monotonically increasing event count. A nil *Counter is a
// valid no-op sink.
type Counter struct {
	name string
	n    int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; nil counters ignore it.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.n += d
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Name returns the registered name ("" for nil).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// gauge is a named callback read at each sampler tick.
type gauge struct {
	name string
	fn   func() float64
}

// dynamic emits a variable set of gauge values per tick (e.g. one pair
// per live process) without registering each name up front.
type dynamic func(emit func(name string, v float64))

// Sample is one sampler tick: every gauge value keyed by name. Gauges
// registered after a tick simply appear in later samples, so rows may be
// ragged across a run.
type Sample struct {
	At     sim.Time
	Values map[string]float64
}

// Event is one phase mark: process Proc ended phase Label at virtual
// time At.
type Event struct {
	At    sim.Time
	Proc  string
	Label string
}

// Registry collects all instruments of one run. The zero value is not
// used directly; create one with New. A nil *Registry is a valid no-op.
type Registry struct {
	counters []*Counter
	gauges   []gauge
	dynamics []dynamic
	hists    []*Histogram
	samples  []Sample
	events   []Event
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// Counter registers a named counter. A nil registry returns a nil
// (no-op) counter, so callers can register unconditionally.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{name: name}
	r.counters = append(r.counters, c)
	return c
}

// Gauge registers a named callback sampled at each tick.
func (r *Registry) Gauge(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.gauges = append(r.gauges, gauge{name: name, fn: fn})
}

// Dynamic registers a callback that emits a variable set of gauge values
// per tick.
func (r *Registry) Dynamic(fn func(emit func(name string, v float64))) {
	if r == nil {
		return
	}
	r.dynamics = append(r.dynamics, fn)
}

// Histogram registers a named sim-time histogram. A nil registry returns
// a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{name: name}
	r.hists = append(r.hists, h)
	return h
}

// Event records a phase begin/end mark; nil registries ignore it.
func (r *Registry) Event(at sim.Time, proc, label string) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{At: at, Proc: proc, Label: label})
}

// Sample snapshots every registered gauge and dynamic emitter at virtual
// time at, appending one row to the time series.
func (r *Registry) Sample(at sim.Time) {
	if r == nil {
		return
	}
	vals := make(map[string]float64, len(r.gauges))
	for _, g := range r.gauges {
		vals[g.name] = g.fn()
	}
	emit := func(name string, v float64) { vals[name] = v }
	for _, d := range r.dynamics {
		d(emit)
	}
	r.samples = append(r.samples, Sample{At: at, Values: vals})
}

// Samples returns the collected time series.
func (r *Registry) Samples() []Sample {
	if r == nil {
		return nil
	}
	return r.samples
}

// Events returns the collected phase events in record order.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Counters returns the registered counters in registration order.
func (r *Registry) Counters() []*Counter {
	if r == nil {
		return nil
	}
	return r.counters
}

// Histograms returns the registered histograms in registration order.
func (r *Registry) Histograms() []*Histogram {
	if r == nil {
		return nil
	}
	return r.hists
}

// DefaultTick is the sampling period used when none is configured.
const DefaultTick = 100 * sim.Millisecond

// Sampler is the handle of a running virtual-time sampling process.
// A nil *Sampler is a valid no-op (Stop does nothing).
type Sampler struct {
	stopped bool
}

// StartSampler spawns a kernel process that calls r.Sample every tick of
// virtual time until Stop. The caller MUST stop the sampler once the
// simulated work completes (machine.Shutdown does), or the sampling
// process keeps the simulation alive forever.
func (r *Registry) StartSampler(k *sim.Kernel, tick sim.Time) *Sampler {
	if r == nil || k == nil {
		return nil
	}
	if tick <= 0 {
		tick = DefaultTick
	}
	s := &Sampler{}
	k.Spawn("metrics.sampler", func(p *sim.Proc) {
		for !s.stopped {
			r.Sample(p.Now())
			p.Advance(tick)
		}
	})
	return s
}

// Stop makes the sampling process exit at its next wake-up.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.stopped = true
}
