package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mmjoin/internal/drain"
	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/metrics"
	"mmjoin/internal/mstore"
	"mmjoin/internal/sim"
)

// Config parameterizes one server. Zero values select the documented
// defaults.
type Config struct {
	// Store is the store the server serves, required: an opened
	// mstore.DB, or a sharded scatter-gather router (`mmdb serve
	// -shard-map`). The server takes ownership: Close closes it.
	Store mstore.Store

	// TmpDir is every join's JoinRequest.TmpDir: the directory whose file
	// system holds the temp arenas, which each store handle keeps mapped
	// between joins and whose files are unlinked as soon as they are
	// mapped. "" puts each store's in that store's own directory.
	TmpDir string

	// MemBudget is the total bytes of join memory the service may have
	// charged to concurrently executing joins (default 8·DefaultGrant).
	MemBudget int64
	// DefaultGrant is the per-request memory grant when the request does
	// not name one (default 4 MiB · D, the store's partition count).
	DefaultGrant int64
	// MaxQueue bounds the admission wait queue; a full queue answers 429
	// (default 64, negative disables queueing entirely).
	MaxQueue int
	// RequestTimeout caps each request's admission wait plus execution
	// (default 30s; requests may shorten it per call).
	RequestTimeout time.Duration

	// Workers sizes the morsel pool shared by every
	// in-flight join (default GOMAXPROCS). However many joins run
	// concurrently, at most Workers goroutines execute join morsels at
	// any instant — the pool, not the request count, bounds CPU fan-out.
	Workers int
}

func (cfg *Config) withDefaults() error {
	if cfg.Store == nil {
		return fmt.Errorf("service: store required")
	}
	// DefaultGrant and MemBudget default in New, once the store's D is
	// known (a sharded store reports it from its shards).
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 64
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	return nil
}

// Server is the concurrent query service over one store. All endpoints
// are safe for concurrent use; joins execute real goroutine parallelism
// over the shared read-only base relations.
type Server struct {
	cfg   Config
	store mstore.Store
	// shardRunner and shardMgr are the store's optional sharded
	// capabilities (nil for a single mapped database): per-shard join
	// detail, and live add/remove-with-drain membership management.
	shardRunner mstore.ShardRunner
	shardMgr    ShardManager
	d           int // addressable partition count (store's D)
	adm         *Admission
	pool        *exec.Pool // morsel pool shared by all in-flight joins

	start time.Time
	// gate registers every request before it touches the store, so
	// Drain cannot return while one might still read a mapping.
	gate drain.Gate

	// meanServiceNs is an EWMA of admitted-join execution time (the time
	// a grant stays charged), the rate at which budget slots recycle. It
	// feeds the dynamic Retry-After hint.
	meanServiceNs atomic.Int64

	// preJoin, when set by tests, runs with the request's context after
	// admission and before execution, making mid-join timing
	// deterministic.
	preJoin func(context.Context)

	mu       sync.Mutex // guards the instrument maps
	counters map[string]int64
	hists    map[string]*metrics.Histogram
}

// New adopts the store, ranks every operator for a join at the default
// grant once — Rank explains the staging operators too, which counts the
// store's reference histogram, and measures its cost profile, so that no
// request pays for either — and assembles the admission controller.
// Close releases the store.
func New(cfg Config) (*Server, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	store := cfg.Store
	d := store.Stats().D
	if d < 1 {
		store.Close()
		return nil, fmt.Errorf("service: store reports D=%d", d)
	}
	if cfg.DefaultGrant <= 0 {
		cfg.DefaultGrant = int64(d) << 22
	}
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = 8 * cfg.DefaultGrant
	}
	s := &Server{
		cfg:      cfg,
		store:    store,
		d:        d,
		adm:      NewAdmission(cfg.MemBudget, cfg.MaxQueue),
		pool:     exec.NewPool(cfg.Workers),
		start:    time.Now(),
		counters: make(map[string]int64),
		hists:    make(map[string]*metrics.Histogram),
	}
	if _, err := s.plan(context.Background(), cfg.DefaultGrant/int64(d), 0); err != nil {
		s.Close()
		return nil, err
	}
	if sr, ok := store.(mstore.ShardRunner); ok {
		s.shardRunner = sr
	}
	if mgr, ok := store.(ShardManager); ok {
		s.shardMgr = mgr
	}
	// Outcome counters registered eagerly so /stats shows them at zero
	// before the first request arrives — client/server reconciliation
	// diffs these keys and must find them on both snapshots. Every
	// operator a request may name has its join_executed_* counter, and
	// auto its own (a sharded auto join has no single operator).
	for _, name := range []string{
		"temp_relations_total",
		"join_requests_total", "bad_requests", "errors_internal", "join_abandoned",
		"rejected_saturated", "rejected_deadline", "rejected_too_large", "rejected_draining",
		"lookups_total", "lookups_ok", "lookups_bad_request", "lookups_not_found",
		"lookups_failed", "lookups_rejected_draining",
		"join_executed_auto",
		"shard_adds_total", "shard_removes_total",
	} {
		s.add(name, 0)
	}
	for _, op := range mstore.Operators(true) {
		s.add("join_executed_"+op.String(), 0)
	}
	return s, nil
}

// plan explains a join at the given grant under every operator the
// store runs now — the index joins only while every live shard carries
// indexes — and returns the plans cheapest first: auto runs the first.
// The store's profile prices the temp arena under TmpDir, where the
// service's joins stage.
func (s *Server) plan(ctx context.Context, mrproc int64, k int) ([]mstore.Plan, error) {
	req := mstore.JoinRequest{MRproc: mrproc, K: k, Pool: s.pool, Ctx: ctx, TmpDir: s.cfg.TmpDir}
	return mstore.Rank(s.store, req, mstore.Operators(s.store.Stats().Indexed))
}

// ShardManager is the optional membership-management capability of
// sharded stores (shard.Router satisfies it): mount a new shard, or
// drain and unmount one. Single-store servers answer 409 on the
// /v1/shards mutation endpoints.
type ShardManager interface {
	AddShard(id, dir string, d int) error
	RemoveShard(ctx context.Context, id string) error
}

// Close releases the worker pool and the store (every mapping behind
// it). Callers should Drain first.
func (s *Server) Close() error {
	s.pool.Close()
	return s.store.Close()
}

// Drain stops admitting new requests (joins answer 503, healthz reports
// draining) and waits until every accepted request — including queued
// ones, and joins whose clients left, which stop at their next morsel
// — has finished, or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	if err := s.gate.Close(ctx); err != nil {
		return fmt.Errorf("service: drain interrupted: %w", err)
	}
	return nil
}

// observe records a wall-clock duration in a named histogram, created on
// first use.
func (s *Server) observe(name string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.hists[name]
	if !ok {
		h = new(metrics.Histogram)
		s.hists[name] = h
	}
	h.Observe(sim.Time(d))
}

// inc bumps a named counter (thread-safe).
func (s *Server) inc(name string) { s.add(name, 1) }

// add increases a named counter, created on first use, by d
// (thread-safe).
func (s *Server) add(name string, d int64) {
	s.mu.Lock()
	s.counters[name] += d
	s.mu.Unlock()
}

// Handler returns the service's HTTP mux. The surface is versioned
// under /v1/ — POST /v1/join, GET /v1/lookup, GET /v1/stats,
// GET /v1/healthz, and shard management under /v1/shards; there are no
// unversioned aliases. Every handler runs behind panic isolation — a panicking request
// answers 500 and the server keeps serving.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/join", s.handleJoin)
	mux.HandleFunc("GET /v1/lookup", s.handleLookup)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/shards", s.handleShardsList)
	mux.HandleFunc("POST /v1/shards", s.handleShardsAdd)
	mux.HandleFunc("DELETE /v1/shards/{id}", s.handleShardsRemove)
	return s.isolate(mux)
}

// isolate recovers handler panics into 500 responses.
func (s *Server) isolate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.inc("panics_recovered")
				writeError(rw, http.StatusInternalServerError, "internal",
					fmt.Sprintf("internal panic: %v", v))
			}
		}()
		next.ServeHTTP(rw, r)
	})
}

// ErrorBody is the one JSON error shape every endpoint returns:
//
//	{"error": {"code": "saturated", "message": "...", "retry_after_ms": 1000}}
//
// Code is a small machine-matchable vocabulary (bad_request, draining,
// saturated, grant_too_large, not_found, not_sharded, abandoned,
// drain_timeout, conflict, internal); Message is human prose;
// RetryAfterMs accompanies retryable rejections and mirrors the
// Retry-After header.
type ErrorBody struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// ErrorEnvelope wraps ErrorBody under the top-level "error" key.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

func writeError(rw http.ResponseWriter, status int, code, msg string) {
	writeJSON(rw, status, ErrorEnvelope{Error: ErrorBody{Code: code, Message: msg}})
}

// writeRetryError also sets the Retry-After header (whole seconds,
// rounded up) alongside the millisecond hint in the body.
func writeRetryError(rw http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	rw.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retryAfter.Seconds()))))
	writeJSON(rw, status, ErrorEnvelope{Error: ErrorBody{
		Code: code, Message: msg, RetryAfterMs: retryAfter.Milliseconds(),
	}})
}

// JoinRequest is the wire form of one join query.
type JoinRequest struct {
	// Algorithm is "auto" (or empty) for the cheapest plan the store
	// explains, or one of nested-loops, sort-merge, grace, hybrid-hash,
	// index-nl, index-merge (the last two on an indexed store only).
	Algorithm string `json:"algorithm"`
	// MemBytes is the request's total memory grant — the unit of
	// admission control. Zero selects the server default. Each of the D
	// partition goroutines receives MemBytes/D as its MRproc.
	MemBytes int64 `json:"memBytes"`
	// K overrides the Grace/hybrid bucket count (0: derive from grant).
	K int `json:"k"`
	// TimeoutMs shortens the server's request timeout for this call.
	TimeoutMs int64 `json:"timeoutMs"`
}

// PlanEntry is one candidate plan in the response, cheapest first, with
// the store's predicted wall-clock time for it.
type PlanEntry struct {
	Algorithm   string `json:"algorithm"`
	PredictedNs int64  `json:"predictedNs"`
}

// JoinResponse is the wire form of one join result.
type JoinResponse struct {
	Algorithm   string      `json:"algorithm"`
	Pairs       int64       `json:"pairs"`
	Signature   string      `json:"signature"` // hex, order-independent
	MemBytes    int64       `json:"memBytes"`  // granted (charged) bytes
	MRproc      int64       `json:"mrprocBytes"`
	QueueWaitNs int64       `json:"queueWaitNs"`
	ElapsedNs   int64       `json:"elapsedNs"` // execution, excluding queue
	Plan        []PlanEntry `json:"plan,omitempty"`
	PredictedNs int64       `json:"predictedNs,omitempty"` // the store's wall-clock estimate for the plan auto ran

	// Shards carries the per-shard breakdown of a scatter-gather join
	// (sharded stores only): which algorithm each shard planned, its
	// slice of the pairs, and its own telemetry. The merged Pairs and
	// Signature above are the fold of these.
	Shards []ShardJoinDetail `json:"shards,omitempty"`
}

// ShardJoinDetail is one shard's contribution on the wire.
type ShardJoinDetail struct {
	Shard     string `json:"shard"`
	Algorithm string `json:"algorithm"`
	Pairs     int64  `json:"pairs"`
	Signature string `json:"signature"` // hex, same encoding as the merged one
	ElapsedNs int64  `json:"elapsedNs"`
	TempFiles int64  `json:"tempFiles,omitempty"`
}

// parseAlgorithm maps a wire name onto the operator of that name among
// every one a store may run (mstore.Operators). index-nl and index-merge
// parse unconditionally; the store rejects them with a client error when
// it has no persistent indexes.
func parseAlgorithm(name string) (join.Algorithm, bool) {
	for _, op := range mstore.Operators(true) {
		if op.String() == name {
			return op, true
		}
	}
	return 0, false
}

// maxBodyBytes bounds the request body a handler reads: a join or
// shard-add request is a few hundred bytes, and an unbounded decode
// would let one client make the server buffer any amount of memory.
const maxBodyBytes = 64 << 10

func (s *Server) handleJoin(rw http.ResponseWriter, r *http.Request) {
	s.inc("join_requests_total")
	// Register with the drain waiter before anything else: once past
	// this point the request — its admission wait and its join included
	// — is visible to Drain, so Drain cannot return (and the caller
	// cannot unmap the db) while this request might still read it.
	if !s.gate.Enter() {
		s.inc("rejected_draining")
		writeError(rw, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	defer s.gate.Exit()

	var req JoinRequest
	if r.Body != nil {
		body := http.MaxBytesReader(rw, r.Body, maxBodyBytes)
		if err := json.NewDecoder(body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			s.inc("bad_requests")
			writeError(rw, http.StatusBadRequest, "bad_request", "bad request body: "+err.Error())
			return
		}
	}
	// More buckets than R objects can never help, so a wire K outside
	// [0, |R|] is a client error. Inside it mstore bounds the bucket
	// state K sizes itself: a join stages into at most 2^params.Bits
	// destinations a row, whatever K asks for.
	if maxK := s.store.Stats().NR; req.K < 0 || req.K > maxK {
		s.inc("bad_requests")
		writeError(rw, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("k=%d out of range [0..%d]", req.K, maxK))
		return
	}
	grant := req.MemBytes
	if grant <= 0 {
		grant = s.cfg.DefaultGrant
	}
	// Every partition goroutine needs at least one page of grant.
	if min := int64(s.d) * 4096; grant < min {
		grant = min
	}
	mrproc := grant / int64(s.d)

	timeout := s.cfg.RequestTimeout
	if req.TimeoutMs > 0 && time.Duration(req.TimeoutMs)*time.Millisecond < timeout {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Plan: the store explains the request under every operator it runs,
	// read off its reference histogram and priced on its own measured
	// profile; auto runs the cheapest. On a sharded store an auto request
	// stays join.Auto — the router re-plans per shard through its
	// PlanFunc, and the table below is advisory: plan_choice_* then
	// counts each shard's pick once the join has run.
	resp := JoinResponse{MemBytes: grant, MRproc: mrproc}
	var alg join.Algorithm
	if req.Algorithm == "" || req.Algorithm == "auto" {
		plans, err := s.plan(ctx, mrproc, req.K)
		if err != nil {
			s.inc("errors_internal")
			writeError(rw, http.StatusInternalServerError, "internal", err.Error())
			return
		}
		alg = plans[0].Algorithm
		resp.PredictedNs = plans[0].PredictedNs
		for _, p := range plans {
			resp.Plan = append(resp.Plan, PlanEntry{Algorithm: p.Algorithm.String(), PredictedNs: p.PredictedNs})
		}
		if s.shardRunner == nil {
			s.inc("plan_choice_" + alg.String())
		} else {
			alg = join.Auto
		}
	} else {
		var ok bool
		alg, ok = parseAlgorithm(req.Algorithm)
		if !ok {
			s.inc("bad_requests")
			writeError(rw, http.StatusBadRequest, "bad_request",
				"unknown algorithm "+strconv.Quote(req.Algorithm))
			return
		}
	}
	resp.Algorithm = alg.String()

	// Admission: charge the grant against the shared memory budget.
	admStart := time.Now()
	if err := s.adm.Acquire(ctx, grant); err != nil {
		s.rejectAdmission(rw, err)
		return
	}
	queueWait := time.Since(admStart)
	resp.QueueWaitNs = queueWait.Nanoseconds()
	s.observe("admission_wait", queueWait)

	// Execute on this handler's goroutine. The join's morsels run on the
	// server's shared pool: however many joins are in flight, and however
	// many shards each one scatters to, at most cfg.Workers goroutines
	// execute morsels. The join stops between morsels once ctx is done,
	// so a deadlined or abandoned request returns at its next morsel.
	// The grant charged at admission derives the join's K and resident
	// prefix (through MRproc) and is held, unchanged, until the join ends.
	execStart := time.Now()
	tel := &mstore.JoinTelemetry{}
	st, details, err := s.runJoin(execStart, grant, mstore.JoinRequest{
		Algorithm: alg, MRproc: mrproc, K: req.K, TmpDir: s.cfg.TmpDir,
		Telemetry: tel, Pool: s.pool, Ctx: ctx,
	})
	elapsed := time.Since(execStart)
	s.foldTelemetry(tel)
	if err != nil {
		if ctx.Err() != nil {
			s.inc("join_abandoned")
			writeError(rw, http.StatusServiceUnavailable, "abandoned",
				"request abandoned mid-join: "+ctx.Err().Error())
			return
		}
		s.inc("errors_internal")
		writeError(rw, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	s.inc("join_executed_" + alg.String())
	s.observe("join_latency_"+alg.String(), elapsed)
	if alg == join.Auto {
		for _, det := range details {
			s.inc("plan_choice_" + det.Algorithm)
		}
	}
	resp.Pairs = st.Pairs
	resp.Signature = fmt.Sprintf("%016x", st.Signature)
	resp.ElapsedNs = elapsed.Nanoseconds()
	for _, det := range details {
		resp.Shards = append(resp.Shards, ShardJoinDetail{
			Shard: det.Shard, Algorithm: det.Algorithm,
			Pairs: det.Pairs, Signature: fmt.Sprintf("%016x", det.Signature),
			ElapsedNs: det.ElapsedNs, TempFiles: det.TempFiles,
		})
	}
	writeJSON(rw, http.StatusOK, resp)
}

// runJoin runs one admitted join and gives its grant back on every
// return, a panic in the store included, before the caller writes the
// response: a caller holding a 200 observes the budget balanced. The
// grant's holding time, from execStart to the release, is the
// slot-recycling time the Retry-After hint needs.
func (s *Server) runJoin(execStart time.Time, grant int64, jr mstore.JoinRequest) (mstore.JoinStats, []mstore.ShardJoinStat, error) {
	defer func() {
		s.recordServiceTime(time.Since(execStart))
		s.adm.Release(grant)
	}()
	if s.preJoin != nil {
		s.preJoin(jr.Ctx)
	}
	if s.shardRunner != nil {
		return s.shardRunner.RunShards(jr)
	}
	st, err := s.store.Run(jr)
	return st, nil, err
}

// foldTelemetry rolls one finished join's counters into the server's
// /stats counters.
func (s *Server) foldTelemetry(tel *mstore.JoinTelemetry) {
	s.add("temp_relations_total", tel.TempFiles.Load())
}

// recordServiceTime folds one admitted join's grant-holding time into
// the EWMA behind the Retry-After hint (α = 1/8; first sample seeds it).
func (s *Server) recordServiceTime(d time.Duration) {
	ns := d.Nanoseconds()
	for {
		old := s.meanServiceNs.Load()
		next := ns
		if old > 0 {
			next = old + (ns-old)/8
			if next <= 0 {
				next = 1
			}
		}
		if s.meanServiceNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// The dynamic Retry-After hint is clamped to [1s, 30s]: the header
// carries whole seconds, and past 30s a client should treat the service
// as down, not politely spin.
const (
	retryAfterHintFloor = time.Second
	retryAfterHintCap   = 30 * time.Second
)

// hintFor estimates how long a rejected client should back off given the
// current queue depth: roughly one mean admitted-service time per queued
// request ahead of it (the rate budget slots recycle at), clamped to
// [1s, 30s].
func (s *Server) hintFor(queueDepth int) time.Duration {
	hint := time.Duration(queueDepth) * time.Duration(s.meanServiceNs.Load())
	return min(max(hint, retryAfterHintFloor), retryAfterHintCap)
}

// retryAfterHint is hintFor at the live queue depth.
func (s *Server) retryAfterHint() time.Duration { return s.hintFor(s.adm.QueueDepth()) }

// rejectAdmission maps admission errors onto HTTP statuses: saturation
// and deadline expiry are retryable (429 with Retry-After), an
// over-budget grant is not (413).
func (s *Server) rejectAdmission(rw http.ResponseWriter, err error) {
	hint := s.retryAfterHint()
	switch {
	case errors.Is(err, ErrSaturated):
		s.inc("rejected_saturated")
		writeRetryError(rw, http.StatusTooManyRequests, "saturated", err.Error(), hint)
	case errors.Is(err, ErrGrantTooLarge):
		s.inc("rejected_too_large")
		writeError(rw, http.StatusRequestEntityTooLarge, "grant_too_large", err.Error())
	case errors.Is(err, ErrBadGrant):
		s.inc("bad_requests")
		writeError(rw, http.StatusBadRequest, "bad_request", err.Error())
	default:
		// Context cancellation or deadline while queued: the client may
		// retry once load subsides.
		s.inc("rejected_deadline")
		writeRetryError(rw, http.StatusTooManyRequests, "saturated",
			"admission wait aborted: "+err.Error(), hint)
	}
}

// LookupResponse is the wire form of one pointer dereference. Shard is
// the id of the shard that answered (sharded stores only) — (part,
// index) names an object on that shard, not a global coordinate.
type LookupResponse struct {
	RPart  int    `json:"rPart"`
	RIndex int    `json:"rIndex"`
	RID    uint64 `json:"rid"`
	SPart  uint32 `json:"sPart"`
	SIndex int    `json:"sIndex"`
	SWord  uint64 `json:"sWord"` // the S object's identity word
	Shard  string `json:"shard,omitempty"`
}

func (s *Server) handleLookup(rw http.ResponseWriter, r *http.Request) {
	s.inc("lookups_total")
	// Lookups dereference the mapping too, so they register with the
	// drain waiter for the same unmap-safety reason joins do. Their
	// drain rejections are counted apart from joins' so client-side
	// accounting can reconcile each endpoint exactly.
	if !s.gate.Enter() {
		s.inc("lookups_rejected_draining")
		writeError(rw, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	defer s.gate.Exit()
	start := time.Now()
	part, err1 := strconv.Atoi(r.URL.Query().Get("part"))
	index, err2 := strconv.Atoi(r.URL.Query().Get("index"))
	if err1 != nil || err2 != nil {
		s.inc("lookups_bad_request")
		writeError(rw, http.StatusBadRequest, "bad_request", "need part=N and index=N")
		return
	}
	// Bounds are the store's to judge: a sharded store routes first and
	// validates (part, index) against the shard that owns the name, so a
	// part that is out of range globally is simply out of range on that
	// shard — the service no longer second-guesses with a global D.
	out, err := s.store.Lookup(part, index)
	switch {
	case errors.Is(err, mstore.ErrPartRange):
		s.inc("lookups_bad_request")
		writeError(rw, http.StatusBadRequest, "bad_request", err.Error())
		return
	case errors.Is(err, mstore.ErrIndexRange):
		s.inc("lookups_not_found")
		writeError(rw, http.StatusNotFound, "not_found", err.Error())
		return
	case err != nil:
		s.inc("lookups_failed")
		writeError(rw, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	s.inc("lookups_ok")
	s.observe("lookup_latency", time.Since(start))
	writeJSON(rw, http.StatusOK, LookupResponse{
		RPart: part, RIndex: index,
		RID: out.RID, SPart: out.SPart, SIndex: out.SIndex, SWord: out.SWord,
		Shard: out.Shard,
	})
}

// handleShardsList answers GET /v1/shards: the store's shard layout
// (empty for a single mapped database, whose kind says so).
func (s *Server) handleShardsList(rw http.ResponseWriter, r *http.Request) {
	st := s.store.Stats()
	writeJSON(rw, http.StatusOK, map[string]any{
		"kind":   st.Kind,
		"shards": st.Shards,
	})
}

// ShardAddRequest is the wire form of POST /v1/shards.
type ShardAddRequest struct {
	ID  string `json:"id"`
	Dir string `json:"dir"`
	D   int    `json:"d"`
}

func (s *Server) handleShardsAdd(rw http.ResponseWriter, r *http.Request) {
	if s.shardMgr == nil {
		writeError(rw, http.StatusConflict, "not_sharded",
			"store is a single database; shard management needs -shard-map")
		return
	}
	if !s.gate.Enter() {
		writeError(rw, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	defer s.gate.Exit()
	var req ShardAddRequest
	if err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(rw, http.StatusBadRequest, "bad_request", "bad request body: "+err.Error())
		return
	}
	if req.ID == "" || req.Dir == "" || req.D < 1 {
		writeError(rw, http.StatusBadRequest, "bad_request", "need id, dir, and d >= 1")
		return
	}
	if err := s.shardMgr.AddShard(req.ID, req.Dir, req.D); err != nil {
		writeError(rw, http.StatusConflict, "conflict", err.Error())
		return
	}
	s.inc("shard_adds_total")
	writeJSON(rw, http.StatusOK, map[string]any{"added": req.ID})
}

// handleShardsRemove answers DELETE /v1/shards/{id}: the shard leaves
// the membership immediately and the call blocks on its drain — joins
// and lookups in flight against the shard finish before its mapping is
// released. The request context (plus the server's request timeout)
// bounds the wait; a timed-out drain answers 504 and the shard stays
// mapped until shutdown.
func (s *Server) handleShardsRemove(rw http.ResponseWriter, r *http.Request) {
	if s.shardMgr == nil {
		writeError(rw, http.StatusConflict, "not_sharded",
			"store is a single database; shard management needs -shard-map")
		return
	}
	if !s.gate.Enter() {
		writeError(rw, http.StatusServiceUnavailable, "draining", "server is draining")
		return
	}
	defer s.gate.Exit()
	id := r.PathValue("id")
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	if err := s.shardMgr.RemoveShard(ctx, id); err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			writeError(rw, http.StatusGatewayTimeout, "drain_timeout", err.Error())
			return
		}
		writeError(rw, http.StatusNotFound, "not_found", err.Error())
		return
	}
	s.inc("shard_removes_total")
	writeJSON(rw, http.StatusOK, map[string]any{"removed": id})
}

// HistogramStats is the exported view of one latency histogram.
type HistogramStats struct {
	Count  int64 `json:"count"`
	MeanNs int64 `json:"meanNs"`
	MinNs  int64 `json:"minNs"`
	MaxNs  int64 `json:"maxNs"`
	P50Ns  int64 `json:"p50Ns"`
	P90Ns  int64 `json:"p90Ns"`
	P99Ns  int64 `json:"p99Ns"`
}

// Stats is the /stats document.
type Stats struct {
	UptimeSec float64 `json:"uptimeSec"`
	Draining  bool    `json:"draining"`
	// DB describes the served store. Kind distinguishes a single mapped
	// database from a sharded router; the latter carries one entry per
	// live shard (its own counts and draining flag; its Pool is always
	// zero, since sharded joins run on the pool below).
	DB        mstore.StoreStats `json:"db"`
	Admission AdmissionStats    `json:"admission"`
	// Pool is the process's one morsel pool, single or sharded:
	// occupancy (Busy/PeakBusy vs Workers), morsel queue depth, and
	// executed/skipped counts.
	Pool exec.Stats `json:"pool"`
	// Gauges holds the Retry-After hint, read at snapshot time; the
	// pool and admission occupancy are the typed blocks above.
	Gauges     map[string]float64        `json:"gauges"`
	Counters   map[string]int64          `json:"counters"`
	Histograms map[string]HistogramStats `json:"histograms"`
}

// StatsSnapshot assembles the /stats document (exported for tests and
// embedding).
func (s *Server) StatsSnapshot() Stats {
	st := Stats{
		UptimeSec:  time.Since(s.start).Seconds(),
		Draining:   s.gate.Closing(),
		DB:         s.store.Stats(),
		Admission:  s.adm.Stats(),
		Pool:       s.pool.Stats(),
		Gauges:     map[string]float64{"retry_after_hint_sec": s.retryAfterHint().Seconds()},
		Histograms: make(map[string]HistogramStats),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Counters = maps.Clone(s.counters)
	for name, h := range s.hists {
		st.Histograms[name] = HistogramStats{
			Count:  h.Count(),
			MeanNs: int64(h.Mean()),
			MinNs:  int64(h.Min()),
			MaxNs:  int64(h.Max()),
			P50Ns:  int64(h.Quantile(0.5)),
			P90Ns:  int64(h.Quantile(0.9)),
			P99Ns:  int64(h.Quantile(0.99)),
		}
	}
	return st
}

func (s *Server) handleStats(rw http.ResponseWriter, r *http.Request) {
	writeJSON(rw, http.StatusOK, s.StatsSnapshot())
}

func (s *Server) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	if s.gate.Closing() {
		writeJSON(rw, http.StatusServiceUnavailable,
			map[string]any{"status": "draining", "draining": true})
		return
	}
	writeJSON(rw, http.StatusOK, map[string]any{"status": "ok", "draining": false})
}

func writeJSON(rw http.ResponseWriter, code int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	enc := json.NewEncoder(rw)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
