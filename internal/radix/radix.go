// Package radix plans multi-pass radix partitioning. The store's staged
// joins (internal/mstore) execute the plan and the analytical model
// (internal/model) prices it, so both read the pass structure from this
// one function instead of keeping mirrored copies.
package radix

// Bits is the per-pass fan-out, log2: one partitioning pass scatters
// into at most 2^8 = 256 destinations — with 4 KiB destination pages a
// ~1 MiB working set, sized to stay inside a typical L2 and well within
// TLB reach. It was a request knob until the recorded 4 / 8 / 12-bit
// axis showed no setting that consistently wins and no caller ever set
// one, so it is a constant.
const Bits = 8

// Fuzz is the hash-table overhead allowance in the bucket-count
// derivation K = ⌈Fuzz·|RSi|·r / MRproc⌉ (§7) that the simulator, the
// model and the store all apply. No caller ever set another value, and
// the golden replay corpus and the Fig 5 conformance are recorded at
// this one.
const Fuzz = 1.2

// Plan splits a k-way partitioning fan-out into the fewest passes of at
// most 1<<bits destinations each. It returns the pass count and the
// top-pass group span — the number of final buckets one first-pass
// group covers ((2^bits)^(passes−1); span 1 means the first pass
// scatters straight into final buckets, the single-pass common case).
func Plan(k, bits int) (passes, span int) {
	// int64: reach overshoots k by up to 2^bits, past a 32-bit int.
	maxFan, sp := int64(1)<<bits, int64(1)
	passes = 1
	for reach := maxFan; reach < int64(k) && sp < 1<<40; reach *= maxFan {
		passes++
		sp *= maxFan
	}
	return passes, int(sp)
}
