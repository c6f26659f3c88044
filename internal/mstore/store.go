package mstore

import (
	"errors"

	"mmjoin/internal/exec"
)

// Store is what the query service serves: one logical pair of relations
// that can be joined, dereferenced, costed, and described — regardless
// of whether it is a single memory-mapped database (*DB) or a sharded
// scatter-gather router fronting many of them (shard.Router). The
// service layer is written against this interface only; everything
// shard-specific rides on the optional capability interfaces below.
type Store interface {
	// Run executes one join over the whole logical relation and returns
	// the merged statistics. Implementations must keep JoinStats
	// bit-identical across equivalent physical layouts: Pairs and
	// Signature fold as commutative sums (see JoinStats.Fold).
	Run(req JoinRequest) (JoinStats, error)
	// Explain returns the plan Run would execute for req, without
	// running it, and its predicted wall-clock time (explain.go). A
	// sharded store explains each live shard at its share of the grant
	// and sums them.
	Explain(req JoinRequest) (Plan, error)
	// Lookup dereferences one R object's stored pointer. A sharded
	// store routes the (part, index) name to exactly one shard and
	// validates the bounds against that shard, reporting which shard
	// answered in LookupResult.Shard. Out-of-range names fail with
	// errors wrapping ErrPartRange / ErrIndexRange.
	Lookup(part, index int) (LookupResult, error)
	// Stats describes the store's physical layout for /stats.
	Stats() StoreStats
	// Close releases every mapping (a sharded store closes all shards).
	Close() error
}

// Sentinel errors for Lookup bounds, so serving layers can map them to
// client-error statuses without string matching.
var (
	// ErrPartRange means the named R partition does not exist on the
	// store (or, sharded, on the shard the name routed to).
	ErrPartRange = errors.New("mstore: R partition out of range")
	// ErrIndexRange means the partition exists but holds no object at
	// the named index.
	ErrIndexRange = errors.New("mstore: R index out of range")
)

// StoreStats describes a store's physical layout: one entry for a
// single mapped database, one per shard behind a router.
type StoreStats struct {
	// Kind is "single" or "sharded".
	Kind string `json:"kind"`
	// Dir is the database directory (single) or the shard-map path.
	Dir string `json:"dir"`
	// D is the partition count a client may address in lookups: the
	// database's D, or the largest shard D behind a router.
	D       int `json:"d"`
	ObjSize int `json:"objSize"`
	// NR and NS total the stored objects (sharded: summed over shards,
	// counting every S replica).
	NR int `json:"nr"`
	NS int `json:"ns"`
	// Indexed reports whether persistent B-tree indexes are attached —
	// the condition for planning IndexNL/IndexMerge. A sharded store is
	// indexed only if every live shard is (the planner picks per shard,
	// but `auto` must never route an index plan at an unindexed shard).
	Indexed bool `json:"indexed"`
	// Shards is present only for sharded stores.
	Shards []ShardInfo `json:"shards,omitempty"`
}

// ShardInfo describes one shard behind a router.
type ShardInfo struct {
	ID      string `json:"id"`
	Dir     string `json:"dir"`
	D       int    `json:"d"`
	ObjSize int    `json:"objSize"`
	NR      int    `json:"nr"`
	NS      int    `json:"ns"`
	// Draining reports an in-progress RemoveShard: the shard no longer
	// accepts new work and disappears once in-flight joins finish.
	Draining bool `json:"draining"`
	// Pool is always zero: shards own no pool, and a sharded join runs
	// on the caller's (the service's one pool, reported at the top of
	// /v1/stats). It remains only because the benchmark harness
	// (benchmark/serve.go) still reads it; it goes when that reader
	// points at the top-level pool.
	Pool exec.Stats `json:"pool"`
}

// ShardJoinStat is one shard's contribution to a scatter-gather join,
// as RunParts reports it: the per-shard statistics and telemetry a
// router folds into the merged response.
type ShardJoinStat struct {
	Shard     string
	Algorithm string // the algorithm this shard executed (per-shard planning may differ)
	Pairs     int64
	Signature uint64
	// ElapsedNs runs from the start of the scatter (RunParts) to the
	// return of the shard's last task.
	ElapsedNs int64
	TempFiles int64
}

// ShardRunner is the optional capability of sharded stores: Run with
// the per-shard detail kept. Store.Run is RunShards with the detail
// dropped.
type ShardRunner interface {
	RunShards(req JoinRequest) (JoinStats, []ShardJoinStat, error)
}

var _ Store = (*DB)(nil)

// Stats implements Store for the single mapped database.
func (db *DB) Stats() StoreStats {
	return StoreStats{
		Kind: "single", Dir: db.Dir, D: db.D, ObjSize: db.ObjSize,
		NR: db.CountR(), NS: db.CountS(), Indexed: db.HasIndexes(),
	}
}
