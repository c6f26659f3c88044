package mstore

import "sync/atomic"

// A join's memory grant, JoinRequest.MRproc, shapes the plan and meters
// nothing while it runs: DB.plan derives Grace's and hybrid hash's
// bucket count K and hybrid hash's resident prefix f0 from it, with the
// rules the simulator and the model use (internal/params).
// Beyond per-worker scratch, the only memory a staging join holds is its
// temp arena, exactly 16 B per staged reference, and every finish orders
// its extent in place inside that arena (orderProbe, join.go). No probe
// table exists that could outgrow the grant, so nothing reserves bytes,
// restages a bucket or asks for more memory mid-join.

// JoinTelemetry counts what one join did. All fields are atomics so
// concurrently running morsels record without locks; a server folds
// them into its /stats counters after the join.
type JoinTelemetry struct {
	// TempFiles counts the temp arenas created. Every staging operator
	// keeps all its destinations, at every stage, in one arena, which it
	// takes from its handle's idle arenas when one in its directory is
	// large enough: a handle's first staging join adds 1, a warm one 0,
	// and one that stages more than any idle arena holds 1 again.
	TempFiles atomic.Int64
	// RadixPasses is 1 once a staging join has run: the scan is its one
	// partitioning pass. It stays only because the benchmark harness
	// (benchmark/lib.go) reads it, and goes with the four fields below.
	RadixPasses atomic.Int64

	// Restages, RestagedRefs, StreamProbes and PeakTableBytes are always
	// zero. They counted the probe table's spill ladder and memory,
	// which no longer exist, and remain only because the benchmark
	// harness (benchmark/lib.go) still reads them; they go when its four
	// metrics do.
	Restages       atomic.Int64
	RestagedRefs   atomic.Int64
	StreamProbes   atomic.Int64
	PeakTableBytes atomic.Int64
}

// Fold merges another join's telemetry into t: TempFiles adds, while
// RadixPasses folds as a max — shards that each partition in one pass
// make a one-pass join. A shard router folds per-shard telemetry into
// the request's shared struct this way.
func (t *JoinTelemetry) Fold(from *JoinTelemetry) {
	t.TempFiles.Add(from.TempFiles.Load())
	storeMax(&t.RadixPasses, from.RadixPasses.Load())
}

// storeMax raises a to at least v.
func storeMax(a *atomic.Int64, v int64) {
	for cur := a.Load(); v > cur && !a.CompareAndSwap(cur, v); cur = a.Load() {
	}
}
