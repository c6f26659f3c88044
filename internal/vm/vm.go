// Package vm models per-process paged virtual memory over mapped
// segments: a fixed frame quota (MRproc/B), LRU replacement with the
// clean-page preference used by Dynix-era pageout daemons, zero-fill
// faults for pages of new mappings, and deferred write-back of dirty
// victims through the disk's pageout queue.
//
// In the memory-mapped environment no read or write is explicit: the join
// algorithms simply Touch address ranges, and all I/O happens here as a
// consequence — page faults for reads, page replacement for writes —
// exactly as in the paper's execution model.
package vm

import (
	"fmt"

	"mmjoin/internal/metrics"
	"mmjoin/internal/seg"
	"mmjoin/internal/sim"
)

// Stats aggregates a pager's activity.
type Stats struct {
	Touches       int64 // Touch page visits
	Hits          int64
	Faults        int64 // misses (disk reads + zero fills)
	DiskReads     int64
	ZeroFills     int64
	Evictions     int64
	DirtyEvicts   int64
	DirtyFlushed  int64 // dirty pages written by FlushSegment/FlushAll
	CleanPrefHits int64 // evictions that skipped dirty LRU pages
}

// Policy selects the page replacement algorithm.
type Policy int

const (
	// LRU evicts the least recently used page, preferring a clean page
	// near the LRU end (the default; a good approximation of a mature
	// Unix pager).
	LRU Policy = iota
	// FIFO evicts the oldest-loaded page regardless of use — the
	// "simple page replacement algorithm" class the paper's Dynix
	// testbed used, which thrashes much earlier than LRU.
	FIFO
	// Clock gives each page one second chance via a reference bit —
	// between FIFO and LRU in quality.
	Clock
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Clock:
		return "clock"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

type pageKey struct {
	seg  *seg.Segment
	page int
}

// frame is one resident page, threaded on the pager's intrusive
// replacement list. Frames are recycled through a free list on eviction,
// so the steady-state fault path allocates nothing.
type frame struct {
	key        pageKey
	dirty      bool
	referenced bool // Clock's second-chance bit
	prev, next *frame
}

// Pager is one process's private memory. The frame quota models MRproc/B.
//
// Residency is indexed by an O(1) map; replacement order is an intrusive
// doubly-linked list (head = most recent for LRU, newest-loaded for
// FIFO/Clock; tail = eviction end), so Touch does no list scans and no
// per-page allocations once the free list is primed.
type Pager struct {
	name       string
	frames     int
	policy     Policy
	reserved   int // frames pinned by in-memory structures (hash tables, heaps)
	resident   map[pageKey]*frame
	head, tail *frame // replacement list: head = most recent, tail = eviction end
	count      int    // resident pages (length of the list)
	free       *frame // recycled frames, chained via next
	prefDepth  int    // how far from the LRU end to search for a clean victim
	stats      Stats
}

// pushFront links fr at the head of the replacement list.
func (pg *Pager) pushFront(fr *frame) {
	fr.prev = nil
	fr.next = pg.head
	if pg.head != nil {
		pg.head.prev = fr
	}
	pg.head = fr
	if pg.tail == nil {
		pg.tail = fr
	}
	pg.count++
}

// unlink removes fr from the replacement list.
func (pg *Pager) unlink(fr *frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		pg.head = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		pg.tail = fr.prev
	}
	fr.prev, fr.next = nil, nil
	pg.count--
}

// moveToFront makes fr the most recently used frame.
func (pg *Pager) moveToFront(fr *frame) {
	if pg.head == fr {
		return
	}
	pg.unlink(fr)
	pg.pushFront(fr)
}

// newFrame takes a frame from the free list or allocates one.
func (pg *Pager) newFrame(key pageKey, dirty bool) *frame {
	fr := pg.free
	if fr != nil {
		pg.free = fr.next
		fr.next = nil
	} else {
		fr = &frame{}
	}
	fr.key = key
	fr.dirty = dirty
	fr.referenced = false
	return fr
}

// recycle clears fr (releasing its segment pointer) and returns it to
// the free list.
func (pg *Pager) recycle(fr *frame) {
	*fr = frame{next: pg.free}
	pg.free = fr
}

// New creates an LRU pager with the given frame quota.
func New(name string, frames int) *Pager {
	return NewWithPolicy(name, frames, LRU)
}

// NewWithPolicy creates a pager with an explicit replacement policy.
func NewWithPolicy(name string, frames int, policy Policy) *Pager {
	if frames < 1 {
		panic(fmt.Sprintf("vm: pager %s needs at least 1 frame, got %d", name, frames))
	}
	p := &Pager{
		name:     name,
		frames:   frames,
		policy:   policy,
		resident: make(map[pageKey]*frame),
	}
	p.prefDepth = frames / 8
	if p.prefDepth < 4 {
		p.prefDepth = 4
	}
	return p
}

// Policy returns the pager's replacement policy.
func (pg *Pager) Policy() Policy { return pg.policy }

// Name returns the pager's diagnostic name.
func (pg *Pager) Name() string { return pg.name }

// Resident returns the number of resident pages.
func (pg *Pager) Resident() int { return pg.count }

// Stats returns a snapshot of the counters.
func (pg *Pager) Stats() Stats { return pg.stats }

// Instrument registers the pager's observability on reg: resident-set
// size, pinned frames, cumulative faults, fault/hit rates, and
// clean-preference hits, all as sampled gauges. A nil registry is a
// no-op, so pagers can be instrumented unconditionally.
func (pg *Pager) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	n := "vm." + pg.name
	reg.Gauge(n+".resident", func() float64 { return float64(pg.count) })
	reg.Gauge(n+".reserved", func() float64 { return float64(pg.reserved) })
	reg.Gauge(n+".faults", func() float64 { return float64(pg.stats.Faults) })
	reg.Gauge(n+".fault_rate", func() float64 {
		if pg.stats.Touches == 0 {
			return 0
		}
		return float64(pg.stats.Faults) / float64(pg.stats.Touches)
	})
	reg.Gauge(n+".hit_rate", func() float64 {
		if pg.stats.Touches == 0 {
			return 0
		}
		return float64(pg.stats.Hits) / float64(pg.stats.Touches)
	})
	reg.Gauge(n+".clean_pref_hits", func() float64 { return float64(pg.stats.CleanPrefHits) })
}

// Reserve pins n frames for memory-resident structures (a hash table, a
// heap of pointers), shrinking the space available to mapped pages and
// evicting immediately if necessary. It models the table overhead the
// paper folds into its fuzz factor.
//
// A request exceeding the quota is clamped so at least one frame remains
// for mapped pages. Reserve returns the number of frames ACTUALLY
// pinned; callers sizing memory-resident tables must check it (and pass
// the same count to Unreserve) rather than assume the request was met.
func (pg *Pager) Reserve(p *sim.Proc, n int) int {
	if n < 0 {
		panic("vm: negative Reserve")
	}
	if pg.reserved+n >= pg.frames {
		// Leave at least one frame for mapped pages.
		n = pg.frames - 1 - pg.reserved
		if n < 0 {
			n = 0
		}
	}
	pg.reserved += n
	for pg.count > pg.avail() {
		pg.evictOne(p)
	}
	return n
}

// Unreserve releases n pinned frames.
func (pg *Pager) Unreserve(n int) {
	if n > pg.reserved {
		n = pg.reserved
	}
	pg.reserved -= n
}

// Reserved returns the number of pinned frames.
func (pg *Pager) Reserved() int { return pg.reserved }

func (pg *Pager) avail() int { return pg.frames - pg.reserved }

// Touch accesses the byte range [off, off+n) of segment s, faulting pages
// in as needed. If write is true the touched pages are dirtied. The
// calling process pays all fault service time.
func (pg *Pager) Touch(p *sim.Proc, s *seg.Segment, off, n int64, write bool) {
	if n <= 0 {
		return
	}
	if off < 0 || off+n > s.Bytes() {
		panic(fmt.Sprintf("vm: %s touches %s[%d,%d) beyond %d bytes",
			pg.name, s.Name(), off, off+n, s.Bytes()))
	}
	b := int64(s.Manager().BlockBytes())
	first := int(off / b)
	last := int((off + n - 1) / b)
	for page := first; page <= last; page++ {
		pg.touchPage(p, s, page, write)
	}
}

// TouchPage accesses a single page directly.
func (pg *Pager) TouchPage(p *sim.Proc, s *seg.Segment, page int, write bool) {
	pg.touchPage(p, s, page, write)
}

func (pg *Pager) touchPage(p *sim.Proc, s *seg.Segment, page int, write bool) {
	pg.stats.Touches++
	key := pageKey{seg: s, page: page}
	if fr, ok := pg.resident[key]; ok {
		pg.stats.Hits++
		switch pg.policy {
		case LRU:
			pg.moveToFront(fr)
		case Clock:
			fr.referenced = true
		case FIFO:
			// Load order only; a hit changes nothing.
		}
		if write {
			fr.dirty = true
		}
		return
	}
	pg.stats.Faults++
	for pg.count >= pg.avail() {
		pg.evictOne(p)
	}
	if s.OnDisk(page) {
		pg.stats.DiskReads++
		s.Disk().Read(p, s.Block(page))
	} else {
		pg.stats.ZeroFills++
	}
	fr := pg.newFrame(key, write)
	pg.pushFront(fr)
	pg.resident[key] = fr
}

// evictOne removes one resident page according to the policy. LRU and
// FIFO prefer a clean page within prefDepth of the eviction end (the
// clean-page preference of Unix pageout daemons); Clock gives referenced
// pages a second chance. A dirty victim is queued on its disk's pageout
// daemon.
func (pg *Pager) evictOne(p *sim.Proc) {
	if pg.count == 0 {
		panic(fmt.Sprintf("vm: %s evict with no resident pages", pg.name))
	}
	var victim *frame
	switch pg.policy {
	case Clock:
		// Sweep from the oldest end, clearing reference bits.
		for {
			fr := pg.tail
			if fr.referenced {
				fr.referenced = false
				pg.moveToFront(fr)
				continue
			}
			victim = fr
			break
		}
	default: // LRU, FIFO: clean-page preference near the eviction end
		depth := 0
		for fr := pg.tail; fr != nil && depth < pg.prefDepth; fr = fr.prev {
			if !fr.dirty {
				victim = fr
				break
			}
			depth++
		}
		if victim == nil {
			victim = pg.tail
		} else if victim != pg.tail {
			pg.stats.CleanPrefHits++
		}
	}
	pg.unlink(victim)
	delete(pg.resident, victim.key)
	pg.stats.Evictions++
	if victim.dirty {
		pg.stats.DirtyEvicts++
		victim.key.seg.MarkOnDisk(victim.key.page)
		victim.key.seg.Disk().ScheduleWrite(p, victim.key.seg.Block(victim.key.page))
	}
	pg.recycle(victim)
}

// FlushSegment writes back all dirty resident pages of s (without
// evicting them) so that the segment's on-disk image is complete.
func (pg *Pager) FlushSegment(p *sim.Proc, s *seg.Segment) {
	for fr := pg.head; fr != nil; fr = fr.next {
		if fr.key.seg == s && fr.dirty {
			fr.dirty = false
			pg.stats.DirtyFlushed++
			s.MarkOnDisk(fr.key.page)
			s.Disk().ScheduleWrite(p, s.Block(fr.key.page))
		}
	}
}

// DropSegment discards all resident pages of s without write-back; used
// when a mapping is deleted together with its data.
func (pg *Pager) DropSegment(s *seg.Segment) {
	var next *frame
	for fr := pg.head; fr != nil; fr = next {
		next = fr.next
		if fr.key.seg == s {
			delete(pg.resident, fr.key)
			pg.unlink(fr)
			pg.recycle(fr)
		}
	}
}

// FlushAll writes back every dirty resident page.
func (pg *Pager) FlushAll(p *sim.Proc) {
	for fr := pg.head; fr != nil; fr = fr.next {
		if fr.dirty {
			fr.dirty = false
			pg.stats.DirtyFlushed++
			fr.key.seg.MarkOnDisk(fr.key.page)
			fr.key.seg.Disk().ScheduleWrite(p, fr.key.seg.Block(fr.key.page))
		}
	}
}

// CheckInvariants verifies the pager's structural invariants: the
// resident set never exceeds the frame quota minus reservations, the
// reservation count stays within [0, frames), and the LRU list and the
// resident index describe the same set of pages. It returns an error
// naming the first violation (conformance-suite hook).
func (pg *Pager) CheckInvariants() error {
	if pg.reserved < 0 || pg.reserved >= pg.frames {
		return fmt.Errorf("vm: %s reserved %d outside [0, %d)", pg.name, pg.reserved, pg.frames)
	}
	if pg.count > pg.avail() {
		return fmt.Errorf("vm: %s resident %d exceeds quota %d (frames %d − reserved %d)",
			pg.name, pg.count, pg.avail(), pg.frames, pg.reserved)
	}
	if pg.count != len(pg.resident) {
		return fmt.Errorf("vm: %s LRU list has %d pages but index has %d",
			pg.name, pg.count, len(pg.resident))
	}
	listed := 0
	for fr := pg.head; fr != nil; fr = fr.next {
		listed++
		if got, ok := pg.resident[fr.key]; !ok || got != fr {
			return fmt.Errorf("vm: %s page %s[%d] on LRU list but not indexed",
				pg.name, fr.key.seg.Name(), fr.key.page)
		}
	}
	if listed != pg.count {
		return fmt.Errorf("vm: %s list walk found %d pages but count is %d",
			pg.name, listed, pg.count)
	}
	if st := pg.stats; st.Faults != st.DiskReads+st.ZeroFills {
		return fmt.Errorf("vm: %s faults %d != disk reads %d + zero fills %d",
			pg.name, st.Faults, st.DiskReads, st.ZeroFills)
	}
	if st := pg.stats; st.Touches != st.Hits+st.Faults {
		return fmt.Errorf("vm: %s touches %d != hits %d + faults %d",
			pg.name, st.Touches, st.Hits, st.Faults)
	}
	return nil
}

// IsResident reports whether the given page of s is in memory (test and
// instrumentation hook).
func (pg *Pager) IsResident(s *seg.Segment, page int) bool {
	_, ok := pg.resident[pageKey{seg: s, page: page}]
	return ok
}
