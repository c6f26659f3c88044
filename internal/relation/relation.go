// Package relation defines the joined relations and their workload
// generator.
//
// Following the paper, the join attribute of every R object is a virtual
// pointer to an object of S (an offset-style pointer into S's segment),
// which provides an implicit ordering of S and lets the algorithms skip
// sorting or hashing S entirely. R and S are partitioned into D
// equal-sized partitions, one per disk; the partition holding an S object
// is computable from the pointer in constant time (the paper's `map`
// operation).
package relation

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
)

// SPtr is a virtual pointer to an object of S: the partition (disk) it
// lives on and its index within that partition. Index order equals
// address order within the partition's segment.
type SPtr struct {
	Part  int32
	Index int32
}

// Less orders pointers by partition then address — the implicit ordering
// of S the algorithms exploit.
func (a SPtr) Less(b SPtr) bool {
	if a.Part != b.Part {
		return a.Part < b.Part
	}
	return a.Index < b.Index
}

// Distribution selects how R's join attributes reference S.
type Distribution int

const (
	// Uniform references S objects uniformly at random — the paper's
	// experimental assumption ("join attributes are randomly distributed
	// in R"), giving skew very close to 1.
	Uniform Distribution = iota
	// Zipf references S objects with a Zipfian popularity (many R objects
	// share a few hot S objects) while keeping partitions balanced in
	// expectation.
	Zipf
	// Local makes a configurable fraction of each Ri's references point
	// into Si (self-partition locality).
	Local
	// HotPartition directs a configurable extra fraction of all
	// references to partition 0, creating partition skew > 1.
	HotPartition
)

func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipf:
		return "zipf"
	case Local:
		return "local"
	case HotPartition:
		return "hot-partition"
	}
	return fmt.Sprintf("Distribution(%d)", int(d))
}

// Spec describes a workload. The zero value is not valid; see
// DefaultSpec for the paper's experimental configuration.
type Spec struct {
	NR, NS       int // total objects in R and S
	RSize, SSize int // object sizes r and s, bytes
	PtrSize      int // size of an S-pointer within an R object, bytes
	D            int // partitions/disks
	Dist         Distribution
	Seed         int64
	ZipfTheta    float64 // Zipf skew parameter (>1 required by rand.Zipf: s)
	LocalFrac    float64 // Local: fraction of refs into own partition
	HotFrac      float64 // HotPartition: extra fraction aimed at partition 0
}

// DefaultSpec returns the paper's §8 configuration: |R| = |S| = 102,400
// objects of 128 bytes over 4 disks, uniformly random references.
func DefaultSpec() Spec {
	return Spec{
		NR:    102400,
		NS:    102400,
		RSize: 128, SSize: 128, PtrSize: 8,
		D:    4,
		Dist: Uniform,
		Seed: 1,
	}
}

// Validate reports whether the spec is internally consistent.
func (s Spec) Validate() error {
	switch {
	case s.NR <= 0 || s.NS <= 0:
		return fmt.Errorf("relation: NR=%d NS=%d must be positive", s.NR, s.NS)
	case s.D <= 0:
		return fmt.Errorf("relation: D=%d must be positive", s.D)
	case s.RSize < s.PtrSize || s.PtrSize <= 0:
		return fmt.Errorf("relation: RSize=%d must hold PtrSize=%d", s.RSize, s.PtrSize)
	case s.SSize <= 0:
		return fmt.Errorf("relation: SSize=%d must be positive", s.SSize)
	case s.NS < s.D || s.NR < s.D:
		return fmt.Errorf("relation: relations smaller than D=%d", s.D)
	case s.Dist < Uniform || s.Dist > HotPartition:
		return fmt.Errorf("relation: unknown distribution %v", s.Dist)
	case s.Dist == Zipf && s.ZipfTheta <= 1:
		return fmt.Errorf("relation: Zipf needs ZipfTheta > 1, got %g", s.ZipfTheta)
	case s.Dist == Local && (s.LocalFrac < 0 || s.LocalFrac > 1):
		return fmt.Errorf("relation: LocalFrac %g out of [0,1]", s.LocalFrac)
	case s.Dist == HotPartition && (s.HotFrac < 0 || s.HotFrac > 1):
		return fmt.Errorf("relation: HotFrac %g out of [0,1]", s.HotFrac)
	}
	return nil
}

// Workload is a generated pair of relations. Only the join attributes are
// materialized (the rest of each 128-byte object is payload whose content
// never matters); storage layout and I/O are the simulator's concern.
//
// A Workload is immutable once Generate, mstore's DB.Workload or shard's
// Router.Workload has returned it: the reference statistics (SubCounts,
// RSCounts, DistinctRefCounts, Skew) are counted once, by the first call
// to any of them on any goroutine, and only read afterwards. Hold it by
// pointer; a later write to Spec or Refs would leave them stale.
type Workload struct {
	Spec Spec
	// Refs[i][x] is the join attribute (S-pointer) of object x of Ri.
	Refs [][]SPtr

	once sync.Once
	st   refStats
}

// Generate builds a workload from the spec deterministically.
func Generate(spec Spec) (*Workload, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	w := &Workload{Spec: spec, Refs: make([][]SPtr, spec.D)}

	var zipf *rand.Zipf
	if spec.Dist == Zipf {
		zipf = rand.NewZipf(rng, spec.ZipfTheta, 1, uint64(spec.NS-1))
	}
	for i := 0; i < spec.D; i++ {
		n := w.SizeR(i)
		refs := make([]SPtr, n)
		for x := 0; x < n; x++ {
			var global int
			switch spec.Dist {
			case Uniform:
				global = rng.Intn(spec.NS)
			case Zipf:
				global = int(zipf.Uint64())
			case Local:
				if rng.Float64() < spec.LocalFrac {
					refs[x] = SPtr{Part: int32(i), Index: int32(rng.Intn(w.SizeS(i)))}
					continue
				}
				global = rng.Intn(spec.NS)
			case HotPartition:
				if rng.Float64() < spec.HotFrac {
					refs[x] = SPtr{Part: 0, Index: int32(rng.Intn(w.SizeS(0)))}
					continue
				}
				global = rng.Intn(spec.NS)
			default:
				return nil, fmt.Errorf("relation: unknown distribution %v", spec.Dist)
			}
			refs[x] = w.globalToPtr(global)
		}
		w.Refs[i] = refs
	}
	return w, nil
}

// MustGenerate is Generate, panicking on error.
func MustGenerate(spec Spec) *Workload {
	w, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return w
}

// globalToPtr maps a global S object number to a partitioned pointer
// (objects are dealt to partitions in contiguous ranges).
func (w *Workload) globalToPtr(g int) SPtr {
	for j := 0; j < w.Spec.D; j++ {
		n := w.SizeS(j)
		if g < n {
			return SPtr{Part: int32(j), Index: int32(g)}
		}
		g -= n
	}
	panic("relation: global S index out of range")
}

// SizeR returns |Ri| (partitions differ by at most one object).
func (w *Workload) SizeR(i int) int { return partSize(w.Spec.NR, w.Spec.D, i) }

// SizeS returns |Sj|.
func (w *Workload) SizeS(j int) int { return partSize(w.Spec.NS, w.Spec.D, j) }

func partSize(n, d, i int) int {
	base := n / d
	if i < n%d {
		base++
	}
	return base
}

// refStats is what the model and the simulator read off the references:
// |Ri,j|, |RSj|, distinct S objects referenced per partition, the skew.
type refStats struct {
	sub      [][]int
	rs       []int
	distinct []int
	skew     float64
}

// stats counts the references the first time it is asked, in one pass:
// |Ri,j| by increment, the distinct count by setting one bit per
// referenced S index and counting the bits afterwards. The bitmaps grow
// to the largest index seen rather than trusting SizeS, which is an even
// deal of Spec.NS that a stored or merged workload need not follow; they
// are dropped when the pass returns.
func (w *Workload) stats() *refStats {
	w.once.Do(func() {
		d := w.Spec.D
		st := refStats{sub: make([][]int, d), rs: make([]int, d), distinct: make([]int, d)}
		seen := make([][]uint64, d)
		for j := range seen {
			seen[j] = make([]uint64, w.SizeS(j)/64+1)
		}
		for i := range st.sub {
			st.sub[i] = make([]int, d)
			for _, ptr := range w.Refs[i] {
				st.sub[i][ptr.Part]++
				word := int(ptr.Index >> 6)
				if word >= len(seen[ptr.Part]) {
					seen[ptr.Part] = append(seen[ptr.Part], make([]uint64, word+1-len(seen[ptr.Part]))...)
				}
				seen[ptr.Part][word] |= 1 << (ptr.Index & 63)
			}
			expect := float64(w.SizeR(i)) / float64(d)
			for j, c := range st.sub[i] {
				st.rs[j] += c
				if v := float64(c) / expect; v > st.skew {
					st.skew = v
				}
			}
		}
		for j, words := range seen {
			for _, x := range words {
				st.distinct[j] += bits.OnesCount64(x)
			}
		}
		w.st = st
	})
	return &w.st
}

// SubCounts returns counts[i][j] = |Ri,j|, the number of Ri objects whose
// join attribute points into Sj. Like RSCounts and DistinctRefCounts it
// returns a copy the caller may write to.
func (w *Workload) SubCounts() [][]int {
	c := make([][]int, w.Spec.D)
	for i, row := range w.stats().sub {
		c[i] = slices.Clone(row)
	}
	return c
}

// Skew returns the paper's skew metric: max over i,j of
// |Ri,j| / (|Ri|/D). A perfectly even workload has skew 1.
func (w *Workload) Skew() float64 { return w.stats().skew }

// RSCounts returns counts[j] = |RSj| = Σi |Ri,j|, the number of R objects
// referencing partition Sj.
func (w *Workload) RSCounts() []int { return slices.Clone(w.stats().rs) }

// DistinctRefCounts returns, per S partition j, the number of distinct S
// objects referenced by any R object — the i parameter of the
// Mackert–Lohman approximation. Under uniform references it approaches
// |RSj|·(1−1/e); under Zipf it collapses to the hot set.
func (w *Workload) DistinctRefCounts() []int { return slices.Clone(w.stats().distinct) }

// PairHash is the canonical hash of one joined pair: Ri object x joined
// with the S object its attribute points to. Summing PairHash over all
// pairs gives an order-independent signature of the full join result,
// used to check that every algorithm computes the same join.
func PairHash(rPart int32, rIndex int32, ptr SPtr) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	put32 := func(off int, v int32) {
		buf[off] = byte(v)
		buf[off+1] = byte(v >> 8)
		buf[off+2] = byte(v >> 16)
		buf[off+3] = byte(v >> 24)
	}
	put32(0, rPart)
	put32(4, rIndex)
	put32(8, ptr.Part)
	put32(12, ptr.Index)
	h.Write(buf[:])
	return h.Sum64()
}

// JoinSignature returns the canonical signature (sum of pair hashes) and
// pair count of the workload's full join.
func (w *Workload) JoinSignature() (sum uint64, pairs int64) {
	for i, refs := range w.Refs {
		for x, ptr := range refs {
			sum += PairHash(int32(i), int32(x), ptr)
			pairs++
		}
	}
	return sum, pairs
}

// BytesR returns |Ri| · r for partition i.
func (w *Workload) BytesR(i int) int64 { return int64(w.SizeR(i)) * int64(w.Spec.RSize) }

// BytesS returns |Sj| · s for partition j.
func (w *Workload) BytesS(j int) int64 { return int64(w.SizeS(j)) * int64(w.Spec.SSize) }

// Keys gives the workload a traditional (non-pointer) reading: every S
// object carries a unique join-key value, assigned by a seeded random
// permutation so that S is NOT clustered on the key — the setting
// conventional join algorithms face. An R object's key reference is the
// key of the S object its pointer names, so the traditional and
// pointer-based algorithms compute the identical join.
type Keys struct {
	w      *Workload
	perm   []uint64 // perm[globalIndex] = key
	starts []int    // global index base per partition
}

// Keys builds (once per call) the key assignment for the workload.
func (w *Workload) Keys() *Keys {
	k := &Keys{w: w, starts: make([]int, w.Spec.D+1)}
	for j := 0; j < w.Spec.D; j++ {
		k.starts[j+1] = k.starts[j] + w.SizeS(j)
	}
	rng := rand.New(rand.NewSource(w.Spec.Seed ^ 0x5EEDCAFE))
	k.perm = make([]uint64, w.Spec.NS)
	for i := range k.perm {
		k.perm[i] = uint64(i)
	}
	rng.Shuffle(len(k.perm), func(a, b int) { k.perm[a], k.perm[b] = k.perm[b], k.perm[a] })
	return k
}

// KeyOf returns the join-key value of the S object at ptr.
func (k *Keys) KeyOf(ptr SPtr) uint64 {
	return k.perm[k.starts[ptr.Part]+int(ptr.Index)]
}

// NodeOf returns the partition a key hash-partitions to (the node that
// processes it in a traditional parallel hash join).
func (k *Keys) NodeOf(key uint64) int {
	return int(key * uint64(k.w.Spec.D) / uint64(k.w.Spec.NS))
}
