package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. The spans of one
// operation share Op; Parent is the ID of the span that caused this one
// (0 for the operation's root, the caller's own view of it). Start and
// End are nanoseconds since the recorder was made.
type span struct {
	ID     int64  `json:"id"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int64  `json:"parent"`
}

// Span slots. A span's ID is its operation's id and its slot, so the
// two sides of a boundary the benchmark cannot pass a value across (an
// HTTP handler and the store it calls) still name each other.
const (
	slotRoot      = 0 // the caller: a library call sequence or an HTTP client
	slotHandler   = 1
	slotAdmission = 2
	slotStore     = 3
	slotPlanner   = 4
	slotShard     = 16  // + shard number
	slotShardPlan = 64  // + shard number
	slotLookup    = 512 // + position in a library lookup block
	slotBits      = 10
)

func spanID(op int64, slot int) int64 { return op<<slotBits | int64(slot) }

// recorder keeps spans in memory; nothing is written until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records one span. parentSlot < 0 marks a root.
func (r *recorder) add(op int64, slot, parentSlot int, name string, start, end time.Time) {
	sp := span{
		ID: spanID(op, slot), Op: op, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	}
	if parentSlot >= 0 {
		sp.Parent = spanID(op, parentSlot)
	}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// selfTimes returns every span's self time: its duration minus the part
// of it its children cover (children may run in parallel, so the
// covered part is the union of their intervals). A child that sticks
// out of its parent, or a negative self time, is a broken trace.
func selfTimes(spans []span) (map[int64]int64, error) {
	byID := make(map[int64]span, len(spans))
	children := make(map[int64][]span)
	for _, sp := range spans {
		if _, dup := byID[sp.ID]; dup {
			return nil, fmt.Errorf("trace: duplicate span id %d (%s)", sp.ID, sp.Name)
		}
		byID[sp.ID] = sp
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, sp := range spans {
		if sp.End < sp.Start {
			return nil, fmt.Errorf("trace: span %d (%s) ends before it starts", sp.ID, sp.Name)
		}
		kids := children[sp.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), sp.Start
		for _, k := range kids {
			if k.Start < sp.Start || k.End > sp.End {
				return nil, fmt.Errorf("trace: span %d (%s) [%d,%d] sticks out of its parent %d (%s) [%d,%d]",
					k.ID, k.Name, k.Start, k.End, sp.ID, sp.Name, sp.Start, sp.End)
			}
			if k.End > edge {
				covered += k.End - max(k.Start, edge)
				edge = k.End
			}
		}
		self[sp.ID] = sp.End - sp.Start - covered
		if self[sp.ID] < 0 {
			return nil, fmt.Errorf("trace: span %d (%s) has negative self time %d", sp.ID, sp.Name, self[sp.ID])
		}
	}
	for id := range children {
		if _, ok := byID[id]; !ok {
			return nil, fmt.Errorf("trace: span %d is named as a parent but was never recorded", id)
		}
	}
	return self, nil
}

// unattributedShare is the share of all operations' time that no layer
// span covers: the roots' self time over the roots' duration.
func unattributedShare(spans []span, self map[int64]int64) float64 {
	var total, bare int64
	for _, sp := range spans {
		if sp.Parent == 0 {
			total += sp.End - sp.Start
			bare += self[sp.ID]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(bare) / float64(total)
}

// writeTrace writes one JSON object per span.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
