package mstore

import (
	"errors"
	"os"
	"slices"
	"sync"
	"unsafe"
)

// ref is one staged reference: the S offset an R object points at and
// that R object's id — the two words the fold reads (pairHash(rid,
// sWord)), projected out of the R record during the scan. The S
// partition is not stored: every destination row holds references into
// exactly one S partition. A consumer needing more of R than its id
// would stage an R reference in the rid slot instead.
type ref struct {
	off Ptr
	rid uint64
}

const refBytes = int64(unsafe.Sizeof(ref{}))

// tempArena is the one temporary of a join: a mapping of at least
// header + n·16 bytes holding every staged reference, opened once at the
// size the layout gives it and never grown or remapped. The stages
// address it as extents — index ranges of refs — so a measured-empty
// destination is a zero-length range and costs nothing, and
// orderProbe's re-partitioning permutes an extent in place instead of
// allocating the next one.
//
// The mapping is drawn from the handle's arenaSet and returned to it by
// close, so a warm staging join creates, faults and unlinks no file.
// Its file is unlinked the moment it is mapped: it stays a MAP_SHARED
// file mapping, paged through the page cache when it outgrows memory,
// but no arena-*.seg is ever visible in a directory, and none outlives
// a process however it ends.
type tempArena struct {
	set  *arenaSet
	dir  string
	tel  *JoinTelemetry
	seg  *Segment
	refs []ref
}

// open takes the arena for n references; n == 0 takes nothing. An idle
// arena of the set in the arena's directory that holds n is reused as
// it lies: the scan's claim cursors fill every slot of [0, n) before
// any finish reads one, and settled checks it. Otherwise open creates a
// fresh arena-*.seg — a random name made O_EXCL, so joins sharing a
// directory never share a file — of exactly header + n·16 bytes, maps
// it, and unlinks it and closes its descriptor at once.
func (a *tempArena) open(n int) error {
	if n == 0 {
		return nil
	}
	seg := a.set.take(a.dir, n)
	if seg == nil {
		var err error
		if seg, err = createArena(a.dir, n); err != nil {
			return err
		}
		a.tel.TempFiles.Add(1)
	}
	a.seg = seg
	// The mapping is page-aligned and the header a multiple of 16 bytes,
	// so the data area is a properly aligned []ref. Byte order is the
	// host's; the file never outlives the mapping that wrote it.
	a.refs = unsafe.Slice((*ref)(unsafe.Pointer(&seg.data[headerSize])), n)
	return nil
}

// createArena makes, maps and unlinks an arena of n references in dir.
func createArena(dir string, n int) (*Segment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "arena-*.seg")
	if err != nil {
		return nil, err
	}
	seg, err := create(f, headerSize+int64(n)*refBytes)
	if err != nil {
		return nil, err
	}
	seg.f = nil
	if err := errors.Join(f.Close(), os.Remove(f.Name())); err != nil {
		seg.unmap()
		return nil, err
	}
	return seg, nil
}

// close returns the arena to the handle's set; callers run it after the
// pool has retired the join's last task, on every exit path.
func (a *tempArena) close() {
	if a.seg != nil {
		a.set.put(a.dir, a.seg)
		a.seg, a.refs = nil, nil
	}
}

// arenaSet is a handle's idle arenas: mappings of unlinked files, each
// holding no descriptor, kept between joins. A join takes the smallest
// one in its directory that holds its references. One that finds none
// unmaps an idle arena that cannot serve it before creating its own, so
// the set never holds more arenas than the handle's peak number of
// concurrent staging joins. There is no size knob: that peak is the
// bound.
type arenaSet struct {
	mu     sync.Mutex
	idle   []idleArena
	closed bool // DB.Close has run: put unmaps
}

type idleArena struct {
	dir string
	seg *Segment
}

// refs is how many references the arena holds.
func (m idleArena) refs() int { return int((m.seg.Size() - headerSize) / refBytes) }

// take removes and returns the smallest idle arena in dir holding n
// references, or nil after unmapping one that cannot serve.
func (s *arenaSet) take(dir string, n int) *Segment {
	s.mu.Lock()
	defer s.mu.Unlock()
	fit, drop := -1, -1
	for x, m := range s.idle {
		switch {
		case m.dir != dir || m.refs() < n:
			drop = x
		case fit < 0 || m.refs() < s.idle[fit].refs():
			fit = x
		}
	}
	if fit < 0 {
		if drop >= 0 {
			s.idle[drop].seg.unmap()
			s.idle = slices.Delete(s.idle, drop, drop+1)
		}
		return nil
	}
	seg := s.idle[fit].seg
	s.idle = slices.Delete(s.idle, fit, fit+1)
	return seg
}

// put keeps seg, an arena of dir a join has finished with, or unmaps it
// once the set is closed.
func (s *arenaSet) put(dir string, seg *Segment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		seg.unmap()
		return
	}
	s.idle = append(s.idle, idleArena{dir: dir, seg: seg})
}

// close unmaps every idle arena; an arena put afterwards is unmapped.
func (s *arenaSet) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var first error
	for _, m := range s.idle {
		if err := m.seg.unmap(); first == nil {
			first = err
		}
	}
	s.idle = nil
	return first
}

// partition permutes refs in place so that the references of class c
// occupy refs[bounds[c]:bounds[c+1]]. bounds must be the exact prefix
// sums of the class sizes, which is what lets every displaced reference
// find a free slot in its own class: a cycle-leader permutation with
// one cursor per class, one class call and one 16-byte move per
// placement, no second copy.
func partition(refs []ref, bounds []int, class func(ref) int) {
	next := slices.Clone(bounds[:len(bounds)-1])
	for c := range next {
		for end := bounds[c+1]; next[c] < end; next[c]++ {
			e := refs[next[c]]
			for to := class(e); to != c; to = class(e) {
				e, refs[next[to]] = refs[next[to]], e
				next[to]++
			}
			refs[next[c]] = e
		}
	}
}
