package mstore

import (
	"os"
	"slices"
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

// tempArena is the one temporary file of a join: a segment of exactly
// header + n·16 bytes holding every staged reference, created once at
// the size the layout gives it and never grown or remapped. The
// stages address it as extents — index ranges of refs — so a
// measured-empty destination is a zero-length range and costs nothing,
// and re-partitioning (refine, orderProbe) permutes an extent in place
// instead of allocating the next one. close unmaps and unlinks without
// syncing: nothing ever reopens a temporary.
type tempArena struct {
	dir  string
	tel  *JoinTelemetry
	seg  *Segment
	refs []ref
}

// open creates the arena for n references; n == 0 creates nothing. The
// file is a fresh arena-*.seg in the arena's directory: a random name
// made O_EXCL, so joins sharing a directory never share a file.
func (a *tempArena) open(n int) error {
	if n == 0 {
		return nil
	}
	if err := os.MkdirAll(a.dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(a.dir, "arena-*.seg")
	if err != nil {
		return err
	}
	seg, err := create(f, headerSize+int64(n)*refBytes)
	if err != nil {
		return err
	}
	a.seg = seg
	// The mapping is page-aligned and the header a multiple of 16 bytes,
	// so the data area is a properly aligned []ref. Byte order is the
	// host's; the file never outlives the process that wrote it.
	a.refs = unsafe.Slice((*ref)(unsafe.Pointer(&seg.data[headerSize])), n)
	a.tel.TempFiles.Add(1)
	return nil
}

// close deletes the arena; callers run it after the pool has retired
// the join's last task, on every exit path.
func (a *tempArena) close() {
	if a.seg != nil {
		a.seg.Delete()
		a.seg, a.refs = nil, nil
	}
}

// partition permutes refs in place so that the references of class c
// occupy refs[bounds[c]:bounds[c+1]]. bounds must be the exact prefix
// sums of the class sizes, which is what lets every displaced reference
// find a free slot in its own class: a cycle-leader permutation with
// one cursor per class, one class call and one 16-byte move per
// placement, no second copy. Bounds that undercount a class — a layout
// gone stale — make it stop and return false before any move leaves
// the class's range.
func partition(refs []ref, bounds []int, class func(ref) int) bool {
	next := slices.Clone(bounds[:len(bounds)-1])
	for c := range next {
		for end := bounds[c+1]; next[c] < end; next[c]++ {
			e := refs[next[c]]
			for to := class(e); to != c; to = class(e) {
				if next[to] == bounds[to+1] {
					return false
				}
				e, refs[next[to]] = refs[next[to]], e
				next[to]++
			}
			refs[next[c]] = e
		}
	}
	return true
}
