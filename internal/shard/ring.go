// Package shard implements the sharded scatter-gather serving tier: a
// Router fronts N independent memory-mapped stores (each with its own
// segment directory and byte-denominated share of the join memory
// budget; all of them run on the join's one exec pool) behind the same
// mstore.Store interface a single database satisfies. Joins scatter to
// every live shard and the per-shard JoinStats — commutative sums — fold
// into one bit-identical result. A join is one pool job over every
// shard (mstore.RunParts), driven by the caller's goroutine: the router
// plans, splits the grant and folds, and starts no goroutine. Lookups
// route to exactly one shard through a consistent-hash ring, so shard
// membership changes move only the keys the departed or arrived shard
// owns.
//
// The design follows the shape of near-optimal distributed binary
// joins: R is partitioned across shards while the S side each R slice
// references is local to the shard (Split replicates S), so a join is
// embarrassingly parallel across shards and the merge is a fold of
// per-shard sums — no cross-shard shuffle phase.
package shard

import (
	"fmt"
	"sort"
)

// ringReplicas is the number of virtual nodes every shard projects onto
// the ring. More vnodes smooth the keyspace split; 64 keeps the worst
// shard within a few percent of fair share while the ring stays small
// enough to rebuild on every membership change.
const ringReplicas = 64

// fnv64a is FNV-1a over a string, the ring's position hash.
func fnv64a(s string) uint64 {
	const offset64, prime64 = uint64(14695981039346656037), uint64(1099511628211)
	h := offset64
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime64
	}
	return h
}

// ringPoint is one virtual node: a position on the 64-bit ring owned by
// a shard.
type ringPoint struct {
	pos uint64
	id  string
}

// ring is an immutable consistent-hash ring over shard ids. Rebuilt
// from scratch on membership changes (cheap at serving-tier shard
// counts); reads are lock-free on the owner's side because the router
// swaps whole rings.
type ring struct {
	points []ringPoint
}

// newRing builds a ring with ringReplicas virtual nodes per shard id.
func newRing(ids []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(ids)*ringReplicas)}
	for _, id := range ids {
		for v := 0; v < ringReplicas; v++ {
			r.points = append(r.points, ringPoint{
				pos: fnv64a(fmt.Sprintf("%s#%d", id, v)),
				id:  id,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		// Identical positions are broken by id so the ring is a pure
		// function of the membership set, never of insertion order.
		return r.points[i].id < r.points[j].id
	})
	return r
}

// owner returns the shard owning key: the first virtual node at or
// clockwise after the key's position, wrapping at the top of the ring.
func (r *ring) owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	pos := fnv64a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].id, true
}

// lookupKey names one R object for routing: the (part, index) pair a
// client dereferences. All routing — serving lookups and any future
// key-addressed writes — must go through the same key derivation or
// shards would disagree about ownership.
func lookupKey(part, index int) string {
	return fmt.Sprintf("%d/%d", part, index)
}
