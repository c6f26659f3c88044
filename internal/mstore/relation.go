package mstore

import (
	"encoding/binary"
	"fmt"
	"runtime"
)

// SPtr is a cross-segment virtual pointer to an object of S: the S
// partition number and the object's offset within that partition's
// segment. It is stored in the first 12 bytes of every R object and is
// the join attribute of the pointer-based joins. Inter-segment pointers
// like this are the small minority that exact positioning cannot make
// free; they are stable because they name a partition, not an address.
type SPtr struct {
	Part uint32
	Off  Ptr
}

const sptrBytes = 12

// EncodeSPtr serializes p into buf (at least sptrBytes long).
func EncodeSPtr(buf []byte, p SPtr) {
	binary.LittleEndian.PutUint32(buf, p.Part)
	binary.LittleEndian.PutUint64(buf[4:], uint64(p.Off))
}

// DecodeSPtr reads a pointer serialized by EncodeSPtr.
func DecodeSPtr(buf []byte) SPtr {
	return SPtr{
		Part: binary.LittleEndian.Uint32(buf),
		Off:  Ptr(binary.LittleEndian.Uint64(buf[4:])),
	}
}

// Relation is a fixed-record heap inside a segment:
//
//	header: count u64, capacity u64, objSize u32, pad u32, data Ptr
//
// Objects are dense, so object i lives at data + i·objSize; both index
// and offset addressing work.
type Relation struct {
	seg  *Segment
	hdr  Ptr
	data Ptr
	size int64 // object size
}

const relHdrBytes = 32

// CreateRelation allocates a relation for capacity objects of objSize
// bytes and installs it as the segment root.
func CreateRelation(seg *Segment, objSize int, capacity int) (*Relation, error) {
	if objSize < sptrBytes {
		return nil, fmt.Errorf("mstore: object size %d below pointer size %d", objSize, sptrBytes)
	}
	hdr, err := seg.Alloc(relHdrBytes)
	if err != nil {
		return nil, err
	}
	data, err := seg.Alloc(int64(objSize) * int64(capacity))
	if err != nil {
		return nil, err
	}
	seg.PutU64(hdr, 0)
	seg.PutU64(hdr+8, uint64(capacity))
	seg.PutU32(hdr+16, uint32(objSize))
	seg.PutU32(hdr+20, 0)
	seg.PutU64(hdr+24, uint64(data))
	seg.SetRoot(hdr)
	return &Relation{seg: seg, hdr: hdr, data: data, size: int64(objSize)}, nil
}

// OpenRelation reads the relation rooted in the segment.
func OpenRelation(seg *Segment) (*Relation, error) {
	hdr := seg.Root()
	if hdr == 0 {
		return nil, fmt.Errorf("mstore: segment %s has no root relation", seg.Path())
	}
	r := &Relation{
		seg:  seg,
		hdr:  hdr,
		data: Ptr(seg.U64(hdr + 24)),
		size: int64(seg.U32(hdr + 16)),
	}
	if r.size < sptrBytes {
		return nil, fmt.Errorf("mstore: corrupt relation header in %s", seg.Path())
	}
	return r, nil
}

// Segment returns the containing segment.
func (r *Relation) Segment() *Segment { return r.seg }

// Count returns the number of stored objects.
func (r *Relation) Count() int { return int(r.seg.U64(r.hdr)) }

// Capacity returns the allocated object capacity.
func (r *Relation) Capacity() int { return int(r.seg.U64(r.hdr + 8)) }

// ObjSize returns the fixed object size in bytes.
func (r *Relation) ObjSize() int { return int(r.size) }

// PtrAt returns the virtual pointer of object i.
func (r *Relation) PtrAt(i int) Ptr { return r.data + Ptr(int64(i)*r.size) }

// Object returns object i as a slice aliasing the mapped memory.
func (r *Relation) Object(i int) []byte {
	if i < 0 || i >= r.Count() {
		panic(fmt.Sprintf("mstore: object %d out of %d", i, r.Count()))
	}
	return r.seg.Bytes(r.PtrAt(i), r.size)
}

// At returns the object stored at virtual pointer p.
func (r *Relation) At(p Ptr) []byte { return r.seg.Bytes(p, r.size) }

// IndexOf converts an object's virtual pointer back to its index.
func (r *Relation) IndexOf(p Ptr) int { return int(int64(p-r.data) / r.size) }

// populate reads one byte of every page of the relation's objects: what
// reads them next finds each page in the page table and its page walk in
// the CPU's caches, as after a pass over them, while only one line per
// page enters the data caches.
func (r *Relation) populate() {
	objs := r.seg.Bytes(r.data, int64(r.Count())*r.size)
	var b byte
	for off := 0; off < len(objs); off += 4096 {
		b ^= objs[off]
	}
	runtime.KeepAlive(b)
}

// Append stores one object and returns its index.
func (r *Relation) Append(obj []byte) (int, error) {
	if int64(len(obj)) != r.size {
		return 0, fmt.Errorf("mstore: append of %d bytes to %d-byte relation", len(obj), r.size)
	}
	n := r.Count()
	if n >= r.Capacity() {
		return 0, fmt.Errorf("mstore: relation full (%d objects)", n)
	}
	copy(r.seg.Bytes(r.PtrAt(n), r.size), obj)
	r.seg.PutU64(r.hdr, uint64(n)+1)
	return n, nil
}

// JoinAttr returns the S-pointer stored in object i of an R relation.
func (r *Relation) JoinAttr(i int) SPtr { return DecodeSPtr(r.Object(i)) }

// SetJoinAttr stores the S-pointer into object i. It is build-time
// only: a DB handle counts its reference histogram once, at its first
// join that stages, and lays out every later one from it, so a pointer
// moved to another S object after that join makes the handle's staging
// joins fail with a stale-histogram error. Rewrite before the first
// join, or close the store and reopen it (OpenDB) to join the new ones.
func (r *Relation) SetJoinAttr(i int, p SPtr) { EncodeSPtr(r.Object(i), p) }
