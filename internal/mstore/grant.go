package mstore

import (
	"sync"
	"sync/atomic"
)

// The planner's memory estimate is exactly that — an estimate. Under
// Zipf key skew, or when the db.Workload() sample the service planned
// against has gone stale, a single Grace/hybrid bucket can hold nearly
// all of R, and a probe that materializes its table regardless of the
// admission grant makes the service's memory budget a fiction. The
// machinery in this file makes every probe provably respect its grant,
// following the dynamic hybrid-hash playbook (per-bucket spill/restage,
// growth-triggered repartitioning, mid-join grant renegotiation):
//
//   - memLimiter meters every probe table against a join-wide byte
//     budget; concurrent probes that would overshoot together wait
//     their turn.
//   - A bucket whose table can never fit — even alone — first asks the
//     GrantNegotiator for more memory, and failing that is restaged:
//     re-partitioned in place, within its extent of the temp arena,
//     into sub-buckets until each fits.
//   - A bucket one hot key dominates cannot be split by restaging (every
//     reference names the same S object), so it is joined in extent
//     order: no table, nothing to reserve.
//
// All of it is gated, as every execution change in this repo, on
// bit-identical Pairs/Signature: the adaptations reorder work, and the
// join statistics fold as commutative sums.

// The counted in-memory footprint of one bucket's probe table is
// tableBytesFor (join.go): the flat open-addressing slot arrays at
// their real load factor plus the per-reference chain and sweep
// entries. The limiter's bound is over these counted bytes — the same
// accounting the grant-bound invariant tests measure.

// maxRestageFanout caps how many sub-buckets one restage pass creates,
// keeping the pass's write cursors cache-resident; a bucket that
// overshoots further recurses.
const maxRestageFanout = 64

// maxRestageDepth is a safety rail on restage recursion. The recursion
// provably terminates without it (every pass separates the span's min
// and max S index), but a rail keeps a future bucketing bug from
// turning into runaway recursion.
const maxRestageDepth = 32

// GrantNegotiator lets a join that discovers mid-flight it was
// under-granted ask the admission layer for more memory instead of
// silently overshooting. Implementations must not block: a denied
// growth makes the operator restage or stream, both of which make
// progress under the original grant.
type GrantNegotiator interface {
	// TryGrow asks for bytes beyond the original grant, returning true
	// when the extra memory was charged to the caller's account.
	TryGrow(bytes int64) bool
	// GiveBack returns bytes previously obtained through TryGrow.
	GiveBack(bytes int64)
}

// JoinTelemetry counts one join's memory-adaptation events. All fields
// are atomics so concurrently probing morsels record without locks; a
// server folds them into its /stats counters after the join.
type JoinTelemetry struct {
	// TempFiles counts temporary files actually created. Every staging
	// operator keeps all its destinations, at every stage, in one arena
	// file, so a join adds 1 — or 0 when it staged nothing.
	TempFiles atomic.Int64
	// Restages counts oversized buckets re-partitioned into
	// sub-buckets; RestagedRefs the references rewritten doing so.
	Restages     atomic.Int64
	RestagedRefs atomic.Int64
	// StreamProbes counts buckets joined in extent order with no table
	// (hot-key buckets restaging cannot split).
	StreamProbes atomic.Int64
	// Renegotiations counts successful mid-join grant growths;
	// RenegotiationsDenied the growth requests the admission layer
	// refused; ExtraGrantBytes the total bytes obtained.
	Renegotiations       atomic.Int64
	RenegotiationsDenied atomic.Int64
	ExtraGrantBytes      atomic.Int64
	// PeakTableBytes is the high-water mark of concurrently reserved
	// probe memory (counted bytes). The grant-bound invariant is
	// PeakTableBytes ≤ grant + ExtraGrantBytes.
	PeakTableBytes atomic.Int64
	// RadixPasses is the partitioning pass count the staged joins ran
	// (radix.Plan): 1 until K exceeds 2^radix.Bits.
	RadixPasses atomic.Int64
}

// Fold merges another join's telemetry into t: the event counters add,
// while PeakTableBytes and RadixPasses fold as a max — each source's
// peak was measured against its own independent budget, and shards that
// each partition in one pass make a one-pass join. A shard router folds
// per-shard telemetry into the request's shared struct this way.
func (t *JoinTelemetry) Fold(from *JoinTelemetry) {
	t.TempFiles.Add(from.TempFiles.Load())
	t.Restages.Add(from.Restages.Load())
	t.RestagedRefs.Add(from.RestagedRefs.Load())
	t.StreamProbes.Add(from.StreamProbes.Load())
	t.Renegotiations.Add(from.Renegotiations.Load())
	t.RenegotiationsDenied.Add(from.RenegotiationsDenied.Load())
	t.ExtraGrantBytes.Add(from.ExtraGrantBytes.Load())
	storeMax(&t.RadixPasses, from.RadixPasses.Load())
	storeMax(&t.PeakTableBytes, from.PeakTableBytes.Load())
}

// storeMax raises a to at least v.
func storeMax(a *atomic.Int64, v int64) {
	for cur := a.Load(); v > cur && !a.CompareAndSwap(cur, v); cur = a.Load() {
	}
}

// memLimiter enforces a join-wide byte budget over the tables the
// probes build. budget 0 means unbounded — reservations
// are accounted (so telemetry still reports the peak) but never denied
// and never wait.
type memLimiter struct {
	mu     sync.Mutex
	cond   *sync.Cond
	budget int64
	used   int64
	extra  int64 // budget grown via neg, given back by close
	neg    GrantNegotiator
	tel    *JoinTelemetry
}

func newMemLimiter(budget int64, neg GrantNegotiator, tel *JoinTelemetry) *memLimiter {
	if budget < 0 {
		budget = 0
	}
	if tel == nil {
		tel = &JoinTelemetry{}
	}
	l := &memLimiter{budget: budget, neg: neg, tel: tel}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// budgetNow reads the current budget (it grows under renegotiation).
func (l *memLimiter) budgetNow() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.budget
}

// reserve charges need bytes against the budget. A reservation that
// fits the budget but not alongside the current holders waits for a
// release — holders never wait while holding, so this cannot deadlock.
// A reservation that could never fit (need exceeds even a renegotiated
// budget) returns false without charging; the caller must then shrink
// its appetite (restage or stream) instead.
func (l *memLimiter) reserve(need int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.budget > 0 && l.used+need > l.budget {
		if need > l.budget {
			want := need - l.budget
			if l.neg != nil && l.neg.TryGrow(want) {
				l.budget += want
				l.extra += want
				l.tel.Renegotiations.Add(1)
				l.tel.ExtraGrantBytes.Add(want)
				continue
			}
			if l.neg != nil {
				l.tel.RenegotiationsDenied.Add(1)
			}
			return false
		}
		l.cond.Wait()
	}
	l.used += need
	storeMax(&l.tel.PeakTableBytes, l.used)
	return true
}

// release returns bytes reserved earlier and wakes waiting probes.
func (l *memLimiter) release(bytes int64) {
	l.mu.Lock()
	l.used -= bytes
	l.mu.Unlock()
	l.cond.Broadcast()
}

// close gives every renegotiated byte back to the admission layer; Run
// defers it so the service's budget balances even on error paths.
func (l *memLimiter) close() {
	l.mu.Lock()
	extra := l.extra
	l.extra = 0
	l.budget -= extra
	l.mu.Unlock()
	if l.neg != nil && extra > 0 {
		l.neg.GiveBack(extra)
	}
}
