// Package mstore is a real memory-mapped single-level store in the style
// of µDatabase: file-backed segments mapped with mmap(2), addressed from
// a per-segment virtual zero so that intra-segment pointers are plain
// offsets and need neither relocation nor swizzling when the segment is
// reopened — the paper's "exact positioning of data" approach.
//
// The package provides append-only persistent segments with an
// in-segment bump allocator (which grows a segment, remapping it, only
// while it is built), fixed-record relation heaps whose join attributes
// are virtual pointers into another segment, and real parallel
// pointer-based joins run on a morsel pool over the mapped data: nested
// loops, sort-merge, Grace and hybrid hash, the two index joins over
// persistent B+trees (index nested loops and index merge), and the
// R-tree intersection join.
//
// Each read-side decision is made in one place: DB.sObject is the one
// pointer rule every reader of a stored pointer applies, DB.configure
// the one derivation of a join's layout that Run executes and Explain
// prices, BTree.iter the one root-to-leaf descent of the B-tree's reads,
// and RTree.expand the one step of the intersection join.
package mstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// unsafeDataPtr returns the address of a mapped slice for msync.
func unsafeDataPtr(b []byte) unsafe.Pointer { return unsafe.Pointer(&b[0]) }

// Ptr is a virtual pointer within a segment: a byte offset from the
// segment's virtual zero. The zero Ptr is the nil pointer (offset 0 holds
// the segment header, so no object ever lives there).
type Ptr uint64

// Header layout. Word 32 is reserved: it once held a free-list head and
// is neither read nor written now, though older files may carry a
// nonzero value there.
const (
	magic       = 0x6D6D4A4F // "mmJO"
	version     = 1
	headerSize  = 64
	offMagic    = 0
	offVersion  = 4
	offSize     = 8  // u64: usable segment size
	offAllocTop = 16 // u64: bump pointer
	offRoot     = 24 // u64: application root object
	offAuxRoot  = 40 // u64: secondary root (e.g. an index over the root relation)
	minSegment  = 4096
	allocAlign  = 8
	minAlloc    = 16 // smallest allocation, so objects land where they always have
)

// Segment is a memory-mapped file whose contents persist across opens.
// It is not safe for concurrent mutation without external locking; the
// join code partitions work so each segment has one writer.
type Segment struct {
	path string
	f    *os.File
	data []byte
}

// Create creates (or truncates) a segment file of the given usable size
// and maps it.
func Create(path string, size int64) (*Segment, error) {
	if size < minSegment {
		size = minSegment
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("mstore: create %s: %w", path, err)
	}
	return create(f, (size+int64(headerSize)+4095)&^4095)
}

// create sizes the new file f to exactly size bytes, header included,
// and maps it. A file it cannot size or map is closed and removed.
func create(f *os.File, size int64) (*Segment, error) {
	path := f.Name()
	if err := f.Truncate(size); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("mstore: size %s: %w", path, err)
	}
	s := &Segment{path: path, f: f}
	if err := s.mmap(size); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	binary.LittleEndian.PutUint32(s.data[offMagic:], magic)
	binary.LittleEndian.PutUint32(s.data[offVersion:], version)
	binary.LittleEndian.PutUint64(s.data[offSize:], uint64(size))
	binary.LittleEndian.PutUint64(s.data[offAllocTop:], headerSize)
	binary.LittleEndian.PutUint64(s.data[offRoot:], 0)
	binary.LittleEndian.PutUint64(s.data[offAuxRoot:], 0)
	return s, nil
}

// Open maps an existing segment file. Because data is exactly positioned,
// no pointer in the segment needs modification.
func Open(path string) (*Segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("mstore: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &Segment{path: path, f: f}
	if err := s.mmap(st.Size()); err != nil {
		f.Close()
		return nil, err
	}
	if binary.LittleEndian.Uint32(s.data[offMagic:]) != magic {
		s.Close()
		return nil, fmt.Errorf("mstore: %s is not a segment file", path)
	}
	if v := binary.LittleEndian.Uint32(s.data[offVersion:]); v != version {
		s.Close()
		return nil, fmt.Errorf("mstore: %s has version %d, want %d", path, v, version)
	}
	if sz := binary.LittleEndian.Uint64(s.data[offSize:]); int64(sz) != st.Size() {
		s.Close()
		return nil, fmt.Errorf("mstore: %s header size %d != file size %d", path, sz, st.Size())
	}
	return s, nil
}

func (s *Segment) mmap(size int64) error {
	data, err := syscall.Mmap(int(s.f.Fd()), 0, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("mstore: mmap %s: %w", s.path, err)
	}
	s.data = data
	return nil
}

// Path returns the backing file path.
func (s *Segment) Path() string { return s.path }

// Size returns the mapped size in bytes.
func (s *Segment) Size() int64 { return int64(len(s.data)) }

// Sync flushes dirty pages to the backing file.
func (s *Segment) Sync() error {
	if len(s.data) == 0 {
		return nil
	}
	_, _, errno := syscall.Syscall(syscall.SYS_MSYNC,
		uintptr(unsafeDataPtr(s.data)), uintptr(len(s.data)), syscall.MS_SYNC)
	if errno != 0 {
		return fmt.Errorf("mstore: msync %s: %w", s.path, errno)
	}
	return nil
}

// Close syncs, unmaps, and closes the file.
func (s *Segment) Close() error {
	var first error
	if s.data != nil {
		first = s.Sync()
	}
	if err := s.unmap(); first == nil {
		first = err
	}
	return first
}

// unmap releases the mapping and the file descriptor without syncing.
func (s *Segment) unmap() error {
	var first error
	if s.data != nil {
		if err := syscall.Munmap(s.data); err != nil {
			first = fmt.Errorf("mstore: munmap %s: %w", s.path, err)
		}
		s.data = nil
	}
	if s.f != nil {
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
		s.f = nil
	}
	return first
}

// check panics on out-of-range access — the mapped equivalent of a
// segmentation fault, which is a programming error.
func (s *Segment) check(p Ptr, n int64) {
	if p < headerSize || int64(p)+n > s.Size() {
		panic(fmt.Sprintf("mstore: access [%d,%d) outside segment %s of %d bytes",
			p, int64(p)+n, s.path, s.Size()))
	}
}

// Bytes returns the n bytes at p as a slice aliasing the mapped memory.
func (s *Segment) Bytes(p Ptr, n int64) []byte {
	s.check(p, n)
	return s.data[p : int64(p)+n : int64(p)+n]
}

// U64 reads a little-endian uint64 at p.
func (s *Segment) U64(p Ptr) uint64 {
	s.check(p, 8)
	return binary.LittleEndian.Uint64(s.data[p:])
}

// PutU64 writes a little-endian uint64 at p.
func (s *Segment) PutU64(p Ptr, v uint64) {
	s.check(p, 8)
	binary.LittleEndian.PutUint64(s.data[p:], v)
}

// U32 reads a little-endian uint32 at p.
func (s *Segment) U32(p Ptr) uint32 {
	s.check(p, 4)
	return binary.LittleEndian.Uint32(s.data[p:])
}

// PutU32 writes a little-endian uint32 at p.
func (s *Segment) PutU32(p Ptr, v uint32) {
	s.check(p, 4)
	binary.LittleEndian.PutUint32(s.data[p:], v)
}

// Root returns the segment's application root pointer.
func (s *Segment) Root() Ptr { return Ptr(binary.LittleEndian.Uint64(s.data[offRoot:])) }

// SetRoot stores the application root pointer.
func (s *Segment) SetRoot(p Ptr) { binary.LittleEndian.PutUint64(s.data[offRoot:], uint64(p)) }

// AuxRoot returns the segment's secondary root pointer, conventionally
// an index over the root relation.
func (s *Segment) AuxRoot() Ptr { return Ptr(binary.LittleEndian.Uint64(s.data[offAuxRoot:])) }

// SetAuxRoot stores the secondary root pointer.
func (s *Segment) SetAuxRoot(p Ptr) { binary.LittleEndian.PutUint64(s.data[offAuxRoot:], uint64(p)) }

func (s *Segment) allocTop() Ptr { return Ptr(binary.LittleEndian.Uint64(s.data[offAllocTop:])) }
func (s *Segment) setAllocTop(p Ptr) {
	binary.LittleEndian.PutUint64(s.data[offAllocTop:], uint64(p))
}

// Alloc reserves n bytes at the allocation top and returns their
// virtual pointer. Segments are append-only: nothing is ever freed, so
// the top only moves up. Sizes are rounded up to allocAlign and to at
// least minAlloc bytes. When the bytes do not fit, Alloc doubles the
// file until they do and remaps it: virtual pointers stay valid, as they
// are offsets, but slices into the old mapping do not, so a segment
// allocates only while it is built, with no reader.
func (s *Segment) Alloc(n int64) (Ptr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mstore: Alloc(%d)", n)
	}
	n = (n + allocAlign - 1) &^ (allocAlign - 1)
	if n < minAlloc {
		n = minAlloc
	}
	top := s.allocTop()
	if end := int64(top) + n; end > s.Size() {
		size := s.Size()
		for size < end {
			size *= 2
		}
		if err := syscall.Munmap(s.data); err != nil {
			return 0, fmt.Errorf("mstore: munmap for grow: %w", err)
		}
		s.data = nil
		if err := s.f.Truncate(size); err != nil {
			return 0, fmt.Errorf("mstore: grow %s: %w", s.path, err)
		}
		if err := s.mmap(size); err != nil {
			return 0, err
		}
		binary.LittleEndian.PutUint64(s.data[offSize:], uint64(size))
	}
	s.setAllocTop(top + Ptr(n))
	return top, nil
}
