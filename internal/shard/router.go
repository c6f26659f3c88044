package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mmjoin/internal/drain"
	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/mstore"
	"mmjoin/internal/relation"
)

// PlanFunc chooses the algorithm one shard executes when the request
// asks for join.Auto: it receives the shard's id, the shard's own
// measured workload, and the per-shard request (with the shard's share
// of the memory grant already folded into MRproc). Each shard
// plans independently — a skew-heavy shard may pick Grace while its
// uniform peers pick hybrid-hash — because the merged JoinStats are
// bit-identical regardless of which algorithm each shard runs.
type PlanFunc func(shardID string, w *relation.Workload, req mstore.JoinRequest) (join.Algorithm, error)

// Config parameterizes a Router.
type Config struct {
	// MapPath is recorded in Stats as the store's "dir" (description
	// only; the Router never re-reads the file).
	MapPath string
	// PlanFunc enables join.Auto requests (nil: auto requests fail).
	PlanFunc PlanFunc
}

// handle is one mounted shard: its mapped database and the gate every
// request registers with before it touches the mapping, so a drain can
// never return while one is about to.
type handle struct {
	id   string
	dir  string
	db   *mstore.DB
	gate drain.Gate

	wOnce sync.Once
	w     *relation.Workload
	wErr  error
}

// workload lazily derives (and caches) the shard's planner view with its
// reference statistics counted: the first auto-planned join pays the
// scan and the count; concurrent PlanFunc calls after it only read.
func (h *handle) workload() (*relation.Workload, error) {
	h.wOnce.Do(func() {
		if h.w, h.wErr = h.db.Workload(); h.wErr == nil {
			h.w.Skew()
		}
	})
	return h.w, h.wErr
}

// Router is the scatter-gather serving tier: an mstore.Store over N
// independent mmap stores. Joins fan out to every live shard and fold;
// lookups route to exactly one shard via consistent hashing. Membership
// is dynamic — AddShard and RemoveShard (with per-shard drain) may run
// concurrently with serving.
type Router struct {
	cfg Config

	mu     sync.RWMutex
	shards []*handle // live membership, in add order
	ring   *ring
	closed bool
	// detached holds shards whose RemoveShard drain timed out: out of
	// the membership but not yet safely closable. Close sweeps them.
	detached []*handle
}

var (
	_ mstore.Store       = (*Router)(nil)
	_ mstore.ShardRunner = (*Router)(nil)
)

// Open mounts every shard in the map and assembles the router.
func Open(m *Map, cfg Config) (*Router, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	r := &Router{cfg: cfg, ring: newRing(nil)}
	for _, e := range m.Shards {
		if err := r.AddShard(e.ID, e.Dir, e.D); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// AddShard mounts one shard (opening its mapped database) and rebuilds
// the routing ring, moving ~1/N of the lookup keyspace onto the
// newcomer. Joins scattered after the add include the new shard's
// objects.
func (r *Router) AddShard(id, dir string, d int) error {
	db, err := mstore.OpenDB(dir, d)
	if err != nil {
		return fmt.Errorf("shard %q: %w", id, err)
	}
	h := &handle{id: id, dir: dir, db: db}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		db.Close()
		return fmt.Errorf("shard: router closed")
	}
	for _, old := range r.shards {
		if old.id == id {
			db.Close()
			return fmt.Errorf("shard: duplicate shard id %q", id)
		}
	}
	r.shards = append(r.shards, h)
	r.rebuildRingLocked()
	return nil
}

// RemoveShard drains one shard and unmounts it: the shard leaves the
// membership and the ring immediately (new joins exclude it, new
// lookups route around it), then the call waits for in-flight requests
// registered with the shard to finish before unmapping. A join that
// began before the removal still includes the shard; one that begins
// after does not. If ctx expires mid-drain the shard stays mapped (its
// requests still hold the mapping) and is released by Close.
func (r *Router) RemoveShard(ctx context.Context, id string) error {
	r.mu.Lock()
	var h *handle
	for i, s := range r.shards {
		if s.id == id {
			h = s
			r.shards = append(r.shards[:i], r.shards[i+1:]...)
			break
		}
	}
	if h == nil {
		r.mu.Unlock()
		return fmt.Errorf("shard: no shard %q", id)
	}
	r.rebuildRingLocked()
	r.mu.Unlock()

	// Every request either registered with the gate before this (and is
	// waited for) or finds it closing and skips the shard.
	if err := h.gate.Close(ctx); err != nil {
		r.mu.Lock()
		r.detached = append(r.detached, h)
		r.mu.Unlock()
		return fmt.Errorf("shard: drain of %q interrupted: %w", id, err)
	}
	return h.db.Close()
}

// rebuildRingLocked recomputes the ring from the live membership.
// Callers hold r.mu.
func (r *Router) rebuildRingLocked() {
	ids := make([]string, len(r.shards))
	for i, h := range r.shards {
		ids[i] = h.id
	}
	r.ring = newRing(ids)
}

// enter registers with the gate of every live shard and returns those
// that accepted, fixing a request's participants — and so its grant
// split — before any work starts. A draining shard is left out: the
// request sees the post-removal relation. The caller exits each gate.
func (r *Router) enter() ([]*handle, error) {
	shards, _, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	live := shards[:0]
	for _, h := range shards {
		if h.gate.Enter() {
			live = append(live, h)
		}
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("shard: no live shards")
	}
	return live, nil
}

// snapshot returns the live membership and ring under the read lock.
func (r *Router) snapshot() ([]*handle, *ring, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return nil, nil, fmt.Errorf("shard: router closed")
	}
	shards := make([]*handle, len(r.shards))
	copy(shards, r.shards)
	return shards, r.ring, nil
}

// Run implements mstore.Store: RunShards with the per-shard detail
// dropped.
func (r *Router) Run(req mstore.JoinRequest) (mstore.JoinStats, error) {
	st, _, err := r.RunShards(req)
	return st, err
}

// RunShards executes one join scatter-gather: every live shard runs the
// request over its own slice of R (with its share of the memory grant;
// req.TmpDir passes through, as each shard's Run makes its own directory
// under it), and the per-shard JoinStats fold —
// commutative sums — into one merged result that is bit-identical to a
// single-store join over the same logical relation.
//
// Grant split: a positive req.MRproc is divided evenly across the
// participating shards (each share floored at one page), so a shard's K
// and resident-fraction derivations see the shard's true budget; 0
// stays unbounded on every shard. Every shard's morsels run on req.Pool,
// so one pool bounds the CPU fan-out of the whole scatter; a nil Pool
// gets one GOMAXPROCS pool for this call, shared by the shards and
// closed on return, as DB.Run does. req.Telemetry, when set, receives
// the folded per-shard telemetry (TempFiles sums, RadixPasses maxes).
//
// With req.Algorithm == join.Auto each shard plans independently
// through Config.PlanFunc against its own measured workload.
func (r *Router) RunShards(req mstore.JoinRequest) (mstore.JoinStats, []mstore.ShardJoinStat, error) {
	if req.Algorithm == join.Auto && r.cfg.PlanFunc == nil {
		return mstore.JoinStats{}, nil, fmt.Errorf("shard: auto requested but the router has no PlanFunc")
	}
	live, err := r.enter()
	if err != nil {
		return mstore.JoinStats{}, nil, err
	}
	if req.Pool == nil {
		req.Pool = exec.NewPool(0)
		defer req.Pool.Close()
	}

	baseCtx := req.Ctx
	if baseCtx == nil {
		baseCtx = context.Background()
	}
	ctx, cancel := context.WithCancel(baseCtx)
	defer cancel()

	type result struct {
		stat mstore.ShardJoinStat
		tel  *mstore.JoinTelemetry
		err  error
	}
	results := make([]result, len(live))
	var wg sync.WaitGroup
	for i, h := range live {
		wg.Add(1)
		go func(i int, h *handle) {
			defer wg.Done()
			defer h.gate.Exit()
			sub := req // per-shard copy
			sub.Ctx = ctx
			tel := &mstore.JoinTelemetry{}
			sub.Telemetry = tel
			sub.MRproc = shareOf(req.MRproc, len(live))
			if sub.Algorithm == join.Auto {
				w, err := h.workload()
				if err == nil {
					sub.Algorithm, err = r.cfg.PlanFunc(h.id, w, sub)
				}
				if err != nil {
					results[i] = result{err: fmt.Errorf("shard %q: planning: %w", h.id, err)}
					cancel()
					return
				}
			}
			start := time.Now()
			st, err := h.db.Run(sub)
			if err != nil {
				results[i] = result{err: fmt.Errorf("shard %q: %w", h.id, err)}
				cancel()
				return
			}
			results[i] = result{
				stat: mstore.ShardJoinStat{
					Shard:       h.id,
					Algorithm:   sub.Algorithm.String(),
					Pairs:       st.Pairs,
					Signature:   st.Signature,
					ElapsedNs:   time.Since(start).Nanoseconds(),
					RadixPasses: tel.RadixPasses.Load(),
					TempFiles:   tel.TempFiles.Load(),
				},
				tel: tel,
			}
		}(i, h)
	}
	wg.Wait()

	var merged mstore.JoinStats
	details := make([]mstore.ShardJoinStat, 0, len(live))
	for _, res := range results {
		if res.err != nil {
			return mstore.JoinStats{}, nil, res.err
		}
		merged.Fold(mstore.JoinStats{Pairs: res.stat.Pairs, Signature: res.stat.Signature})
		if req.Telemetry != nil {
			req.Telemetry.Fold(res.tel)
		}
		details = append(details, res.stat)
	}
	return merged, details, nil
}

// shareOf is one of n shards' share of a positive grant, floored at one
// page; 0 (unbounded) stays 0 on every shard.
func shareOf(mrproc int64, n int) int64 {
	if mrproc <= 0 {
		return mrproc
	}
	return max(mrproc/int64(n), 4096)
}

// Explain implements mstore.Store: every live shard explains the request
// at its share of the grant, as RunShards would run it, and the plans
// fold — staged references, arena bytes and predicted time sum, since
// the shards' morsels share one pool. Auto is not explainable: the
// shards' PlanFunc choices are made at run time.
func (r *Router) Explain(req mstore.JoinRequest) (mstore.Plan, error) {
	live, err := r.enter()
	if err != nil {
		return mstore.Plan{}, err
	}
	defer func() {
		for _, h := range live {
			h.gate.Exit()
		}
	}()
	if req.Pool == nil {
		req.Pool = exec.NewPool(0)
		defer req.Pool.Close()
	}
	sub := req
	sub.MRproc = shareOf(req.MRproc, len(live))
	var total mstore.Plan
	for k, h := range live {
		p, err := h.db.Explain(sub)
		if err != nil {
			return mstore.Plan{}, fmt.Errorf("shard %q: %w", h.id, err)
		}
		if k == 0 {
			total = p
		} else {
			total.Fold(p)
		}
	}
	return total, nil
}

// Lookup routes the (part, index) name to exactly one shard through the
// consistent-hash ring, validates the bounds against that shard — not
// against any global partition count — and dereferences there. The
// answering shard's id is returned in LookupResult.Shard.
func (r *Router) Lookup(part, index int) (mstore.LookupResult, error) {
	// A removal between taking the ring and registering with the owner
	// re-routes on a fresh ring; membership churn is bounded, so a few
	// retries always land on a live owner.
	for attempt := 0; attempt < 4; attempt++ {
		shards, ring, err := r.snapshot()
		if err != nil {
			return mstore.LookupResult{}, err
		}
		owner, ok := ring.owner(lookupKey(part, index))
		if !ok {
			return mstore.LookupResult{}, fmt.Errorf("shard: no live shards")
		}
		var h *handle
		for _, s := range shards {
			if s.id == owner {
				h = s
				break
			}
		}
		if h == nil || !h.gate.Enter() {
			continue // membership changed under us; re-route
		}
		res, err := r.lookupOn(h, part, index)
		h.gate.Exit()
		return res, err
	}
	return mstore.LookupResult{}, fmt.Errorf("shard: lookup routing did not settle (membership churn)")
}

// lookupOn dereferences on one shard; the store validates the name
// against that shard's own partition count and sizes.
func (r *Router) lookupOn(h *handle, part, index int) (mstore.LookupResult, error) {
	res, err := h.db.Lookup(part, index)
	if err != nil {
		return mstore.LookupResult{}, fmt.Errorf("shard %q: %w", h.id, err)
	}
	res.Shard = h.id
	return res, nil
}

// Stats describes the sharded layout: one ShardInfo per live shard.
// Shards own no pool, so every ShardInfo.Pool is zero.
func (r *Router) Stats() mstore.StoreStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st := mstore.StoreStats{Kind: "sharded", Dir: r.cfg.MapPath, Indexed: len(r.shards) > 0}
	for _, h := range r.shards {
		if !h.db.HasIndexes() {
			st.Indexed = false
		}
		info := mstore.ShardInfo{
			ID: h.id, Dir: h.dir, D: h.db.D, ObjSize: h.db.ObjSize,
			NR: h.db.CountR(), NS: h.db.CountS(),
			Draining: h.gate.Closing(),
		}
		st.Shards = append(st.Shards, info)
		st.NR += info.NR
		st.NS += info.NS
		if info.D > st.D {
			st.D = info.D
		}
		if st.ObjSize == 0 {
			st.ObjSize = info.ObjSize
		}
	}
	return st
}

// Close unmounts every shard (live and detached). Callers should drain
// the serving layer first; Close does not wait for in-flight joins.
func (r *Router) Close() error {
	r.mu.Lock()
	shards := append(r.shards, r.detached...)
	r.shards, r.detached = nil, nil
	closed := r.closed
	r.closed = true
	r.ring = newRing(nil)
	r.mu.Unlock()
	if closed {
		return nil
	}
	var first error
	for _, h := range shards {
		if err := h.db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
