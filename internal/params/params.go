// Package params holds the parameter rules of the pointer joins, each
// written once as a pure function of sizes and memory: the scan's
// fan-out, the bucket count K with its fuzz pad (§7), hybrid hash's
// resident fraction f0, the hash-table size TSIZE, and sort-merge's run
// sizes IRUN and NRUN (§6). The simulator (internal/join), the analytical
// model (internal/model) and the store (internal/mstore) all call them,
// each with its own inputs — the simulator the largest |RSi|, the model
// the skewed |RSi|, the store |R|/D — so the plan one of them prices is
// the plan the others execute. A grant of 0 is unbounded: one bucket,
// everything resident. Only the store passes one; the others reject a
// grant below a page.
package params

import "math"

// Bits is the per-pass fan-out, log2: one partitioning pass scatters
// into at most 2^8 = 256 destinations — with 4 KiB destination pages a
// ~1 MiB working set, sized to stay inside a typical L2 and well within
// TLB reach. It was a request knob until the recorded 4 / 8 / 12-bit
// axis showed no setting that consistently wins and no caller ever set
// one, so it is a constant.
const Bits = 8

// Fuzz is the hash-table overhead allowance in the bucket-count
// derivation K = ⌈Fuzz·|RSi|·r / MRproc⌉ (§7). No caller ever set
// another value, and the golden replay corpus and the Fig 5 conformance
// are recorded at this one.
const Fuzz = 1.2

// headroom is the share of a grant hybrid hash lets its resident S
// prefix fill, so that immediate joins against it re-fault rarely.
const headroom = 0.8

// Buckets is the bucket count K of Grace (f0 = 0) and of hybrid hash's
// overflow: an explicit k > 0 as given, else K = ⌈Fuzz·(1−f0)·refs·bytes
// / mem⌉, so that one bucket of the refs references of bytes each that
// do not stay resident, padded for its table, fits the grant of mem
// bytes; never below 1. A grant of 0 is unbounded: one bucket. When
// everything is resident (f0 = 1) there is nothing to bucket, and K = 0
// whatever k asks for.
func Buckets(k int, f0, refs float64, bytes, mem int64) int {
	if f0 >= 1 {
		return 0
	}
	if k <= 0 && mem > 0 {
		k = int(math.Ceil(Fuzz * (1 - f0) * refs * float64(bytes) / float64(mem)))
	}
	return max(k, 1)
}

// Cap limits k to one bucket per reference, and at least one bucket: a
// bucket beyond the refs references there are to spread is empty by
// construction and only costs bucket state. K = 0 stays 0.
func Cap(k int, refs float64) int {
	return min(k, max(int(refs), 1))
}

// Resident is hybrid hash's resident fraction f0 (Shekita and Carey):
// the share of an S partition of objs objects of size bytes that fits
// in 0.8 of a grant of mem bytes, clamped to [0, 1]. A grant of 0 is
// unbounded, as in Buckets: everything stays resident.
func Resident(mem int64, objs float64, size int64) float64 {
	if mem <= 0 {
		return 1
	}
	return min(max(headroom*float64(mem)/(objs*float64(size)), 0), 1)
}

// TableSize is TSIZE, the chain count of a bucket's hash table: the
// smallest power of two, at least 16, that reaches a quarter of the
// average bucket when refs references spread over k buckets.
func TableSize(refs float64, k int) int {
	avg := 0
	if k > 0 {
		avg = int(refs / float64(k))
	}
	t := 16
	for t < avg/4 {
		t *= 2
	}
	return t
}

// Runs is sort-merge's run plan (§6) for a grant of mem bytes, objects
// of obj bytes, heap pointers of hp bytes and pages of page bytes:
// IRUN = M/(r+hp) objects per heap-sorted run, at least 1; NRUNABL =
// M/3B runs merged per pass before the last and NRUNLAST = M/2B runs
// left for the joining merge, each at least 2. An explicit nrunABL or
// nrunLast > 0 replaces its derivation; the floors hold either way.
func Runs(nrunABL, nrunLast int, mem, obj, hp, page int64) (int, int, int) {
	irun := int(mem / (obj + hp))
	if nrunABL <= 0 {
		nrunABL = int(mem / (3 * page))
	}
	if nrunLast <= 0 {
		nrunLast = int(mem / (2 * page))
	}
	return max(irun, 1), max(nrunABL, 2), max(nrunLast, 2)
}
