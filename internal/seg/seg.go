// Package seg implements the single-level store's segment layer: named,
// contiguous extents of disk blocks that are mapped into a process's
// address space. It models µDatabase's "exact positioning" approach: a
// segment's address space starts at virtual zero, so pointers inside a
// segment are plain offsets and need no relocation or swizzling when the
// segment is mapped.
//
// The three mapping operations of the paper's Fig. 1(b) — creating a new
// mapping, opening an existing one, and deleting a mapping together with
// its data — have setup costs linear in the mapping size (page-table
// construction and disk-space management), and are serialized through a
// system-wide lock, which is why the paper multiplies setup cost by D.
package seg

import (
	"fmt"

	"mmjoin/internal/disk"
	"mmjoin/internal/sim"
)

// SetupCost parameterizes the cost of mapping operations as
// base + perPage · pages. Defaults approximate the paper's Fig. 1(b).
type SetupCost struct {
	NewBase       sim.Time
	NewPerPage    sim.Time
	OpenBase      sim.Time
	OpenPerPage   sim.Time
	DeleteBase    sim.Time
	DeletePerPage sim.Time
}

// DefaultSetupCost approximates Fig. 1(b): at 12800 4K blocks, newMap
// ≈ 11 s, openMap ≈ 8 s, deleteMap ≈ 3.5 s, each roughly linear in size.
func DefaultSetupCost() SetupCost {
	return SetupCost{
		NewBase:       100 * sim.Millisecond,
		NewPerPage:    sim.Time(850 * int64(sim.Microsecond)),
		OpenBase:      80 * sim.Millisecond,
		OpenPerPage:   sim.Time(620 * int64(sim.Microsecond)),
		DeleteBase:    50 * sim.Millisecond,
		DeletePerPage: sim.Time(270 * int64(sim.Microsecond)),
	}
}

// System is the machine-wide mapping service. Mapping manipulation is a
// serial operation (one kernel lock), shared by all managers.
type System struct {
	lock *sim.Resource
	cost SetupCost
}

// NewSystem creates the mapping service with the given cost model.
func NewSystem(cost SetupCost) *System {
	return &System{lock: sim.NewResource("map-lock"), cost: cost}
}

// Manager allocates segments on one disk. Extents are handed out
// first-fit from a free list, falling back to a bump pointer, so segments
// created in sequence are laid out contiguously in creation order —
// matching the disk-layout diagrams in the paper's analysis sections.
type Manager struct {
	sys  *System
	d    *disk.Disk
	free []extent // sorted by base, coalesced
	next int      // bump pointer (blocks)
	high int      // capacity in blocks
}

type extent struct{ base, pages int }

// NewManager creates a segment manager for drive d.
func NewManager(sys *System, d *disk.Disk) *Manager {
	return &Manager{sys: sys, d: d, high: d.Config().Blocks}
}

// Disk returns the underlying drive.
func (m *Manager) Disk() *disk.Disk { return m.d }

// BlockBytes returns the page size B.
func (m *Manager) BlockBytes() int { return m.d.Config().BlockBytes }

// Segment is a contiguous mapped extent. Offsets within the segment are
// the virtual pointers of the single-level store.
type Segment struct {
	name    string
	mgr     *Manager
	base    int // first block
	pages   int
	bytes   int64
	onDisk  []bool // page has valid contents on disk (false ⇒ zero-fill fault)
	deleted bool
}

// Name returns the segment name.
func (s *Segment) Name() string { return s.name }

// Pages returns the segment length in blocks.
func (s *Segment) Pages() int { return s.pages }

// Bytes returns the mapped length in bytes.
func (s *Segment) Bytes() int64 { return s.bytes }

// Manager returns the owning manager.
func (s *Segment) Manager() *Manager { return s.mgr }

// Disk returns the drive holding the segment.
func (s *Segment) Disk() *disk.Disk { return s.mgr.d }

// Block translates a page index to an absolute disk block.
func (s *Segment) Block(page int) int {
	if page < 0 || page >= s.pages {
		panic(fmt.Sprintf("seg %s: page %d out of range [0,%d)", s.name, page, s.pages))
	}
	return s.base + page
}

// OnDisk reports whether the page has valid contents on disk; a fault on
// a page not on disk is a zero-fill fault with no I/O.
func (s *Segment) OnDisk(page int) bool { return s.onDisk[page] }

// MarkOnDisk records that the page's contents were written to disk.
func (s *Segment) MarkOnDisk(page int) { s.onDisk[page] = true }

func (m *Manager) pagesFor(bytes int64) int {
	b := int64(m.BlockBytes())
	return int((bytes + b - 1) / b)
}

// allocate finds an extent of the given size (blocks).
func (m *Manager) allocate(pages int) int {
	for i, e := range m.free {
		if e.pages >= pages {
			base := e.base
			if e.pages == pages {
				m.free = append(m.free[:i], m.free[i+1:]...)
			} else {
				m.free[i] = extent{base: e.base + pages, pages: e.pages - pages}
			}
			return base
		}
	}
	if m.next+pages > m.high {
		panic(fmt.Sprintf("seg: disk %s full: need %d blocks, %d free at bump pointer",
			m.d.Name(), pages, m.high-m.next))
	}
	base := m.next
	m.next += pages
	return base
}

// release returns an extent to the free list, coalescing neighbours.
func (m *Manager) release(base, pages int) {
	// Insert sorted by base.
	i := 0
	for i < len(m.free) && m.free[i].base < base {
		i++
	}
	m.free = append(m.free, extent{})
	copy(m.free[i+1:], m.free[i:])
	m.free[i] = extent{base: base, pages: pages}
	// Coalesce with right neighbour, then left.
	if i+1 < len(m.free) && m.free[i].base+m.free[i].pages == m.free[i+1].base {
		m.free[i].pages += m.free[i+1].pages
		m.free = append(m.free[:i+1], m.free[i+2:]...)
	}
	if i > 0 && m.free[i-1].base+m.free[i-1].pages == m.free[i].base {
		m.free[i-1].pages += m.free[i].pages
		m.free = append(m.free[:i], m.free[i+1:]...)
	}
	// Give back a trailing extent to the bump pointer.
	if n := len(m.free); n > 0 && m.free[n-1].base+m.free[n-1].pages == m.next {
		m.next = m.free[n-1].base
		m.free = m.free[:n-1]
	}
}

func (m *Manager) newSegment(name string, bytes int64, onDisk bool) *Segment {
	pages := m.pagesFor(bytes)
	if pages == 0 {
		pages = 1
	}
	s := &Segment{
		name:   name,
		mgr:    m,
		base:   m.allocate(pages),
		pages:  pages,
		bytes:  bytes,
		onDisk: make([]bool, pages),
	}
	if onDisk {
		for i := range s.onDisk {
			s.onDisk[i] = true
		}
	}
	return s
}

// Preexisting creates a segment whose data already exists on disk, at no
// simulated cost. It is the fixture-building primitive: the relations R
// and S exist before the join is timed.
func (m *Manager) Preexisting(name string, bytes int64) *Segment {
	return m.newSegment(name, bytes, true)
}

// NewMap creates a mapping for a new area of disk, charging the newMap
// setup cost under the system-wide mapping lock. Pages are zero-fill.
func (m *Manager) NewMap(p *sim.Proc, name string, bytes int64) *Segment {
	s := m.newSegment(name, bytes, false)
	m.sys.lock.Use(p, m.sys.cost.NewBase+sim.Time(s.pages)*m.sys.cost.NewPerPage)
	return s
}

// OpenMap establishes a mapping to segment s's existing area, charging the
// openMap setup cost under the mapping lock.
func (m *Manager) OpenMap(p *sim.Proc, s *Segment) {
	if s.deleted {
		panic(fmt.Sprintf("seg: OpenMap of deleted segment %s", s.name))
	}
	m.sys.lock.Use(p, m.sys.cost.OpenBase+sim.Time(s.pages)*m.sys.cost.OpenPerPage)
}

// DeleteMap destroys the mapping and its data, charging the deleteMap
// setup cost and returning the extent for reuse.
func (m *Manager) DeleteMap(p *sim.Proc, s *Segment) {
	if s.deleted {
		panic(fmt.Sprintf("seg: double DeleteMap of %s", s.name))
	}
	m.sys.lock.Use(p, m.sys.cost.DeleteBase+sim.Time(s.pages)*m.sys.cost.DeletePerPage)
	s.deleted = true
	m.release(s.base, s.pages)
}

// FreeBlocks reports how many blocks remain allocatable.
func (m *Manager) FreeBlocks() int {
	n := m.high - m.next
	for _, e := range m.free {
		n += e.pages
	}
	return n
}
