package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/model"
	"mmjoin/internal/mstore"
	"mmjoin/internal/planner"
	"mmjoin/internal/relation"
	"mmjoin/internal/service"
	"mmjoin/internal/shard"
)

// routerCalibrationOps is the effort `mmdb serve -shard-map` calibrates
// its per-shard planner with when -calops is not given.
const routerCalibrationOps = 400

// warmLookups is how many lookups each client sends before timing.
const warmLookups = 64

// shardDirs names the stores a workload built: the source, and the
// shard map when it was split.
type shardDirs struct {
	src string
	m   *shard.Map
}

// splitStore splits the source store into indexed shards.
func splitStore(s spec, dir, src string, pool *exec.Pool, lt *layerTimes) (*shardDirs, error) {
	outs := make([]string, s.shards)
	for k := range outs {
		outs[k] = filepath.Join(dir, fmt.Sprintf("shard-%d", k))
	}
	t0 := time.Now()
	m, err := shard.Split(src, partitions, outs)
	if err != nil {
		return nil, err
	}
	lt.split = time.Since(t0).Seconds()
	t0 = time.Now()
	for _, e := range m.Shards {
		db, err := mstore.OpenDB(e.Dir, e.D)
		if err != nil {
			return nil, err
		}
		err = db.BuildIndexes(context.Background(), pool)
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("indexing %s: %w", e.ID, err)
		}
	}
	lt.indexBuild = time.Since(t0).Seconds()
	return &shardDirs{src: src, m: m}, nil
}

// openRouter mounts the shard map with the PlanFunc wiring of
// `mmdb serve -shard-map`: one calibration, per-shard planning against
// each shard's own workload, index plans only when every shard can run
// them. tr, when non-nil, records a span around each planning call.
func openRouter(m *shard.Map, tr *storeTrace) (*shard.Router, error) {
	mcfg := machine.DefaultConfig()
	mcfg.D = m.Shards[0].D
	calib := model.Calibrate(mcfg, routerCalibrationOps, 1)
	pl := planner.New(calib, nil)
	plIdx := planner.New(calib, planner.IndexAlgorithms)
	var r *shard.Router
	planFn := func(id string, w *relation.Workload, req mstore.JoinRequest) (join.Algorithm, error) {
		start := time.Now()
		p := pl
		if r != nil && r.Stats().Indexed {
			p = plIdx
		}
		choice, err := p.ChooseFor(join.Request{
			Config: mcfg,
			Params: join.Params{Workload: w, MRproc: req.MRproc, K: req.K},
		})
		if err != nil {
			return 0, err
		}
		if tr != nil {
			tr.planned(req.Ctx, id, start, time.Now())
		}
		return choice.Best.Algorithm, nil
	}
	var err error
	r, err = shard.Open(m, shard.Config{PlanFunc: planFn})
	return r, err
}

// opHeader carries a traced operation's id from the client to the
// handler wrapper, which puts it in the request context; the service
// hands that context to the store as JoinRequest.Ctx.
const opHeader = "X-Bench-Op"

type opKey struct{}

func opOf(ctx context.Context) int64 {
	if ctx == nil {
		return 0
	}
	op, _ := ctx.Value(opKey{}).(int64)
	return op
}

// storeJoin is what the traced store saw of one join.
type storeJoin struct {
	start, end time.Time
	tel        telemetry
}

// storeTrace is the served workloads' tracing state: the handler
// wrapper and the store decorator write it, the clients read it back
// when their response arrives. Operations without an id (warm-up) are
// not recorded.
type storeTrace struct {
	rec     *recorder
	callers int
	shardNo map[string]int

	// Store.Lookup carries no context. A caller has one request in
	// flight and only looks up rows congruent to its number (keyGen),
	// so the handler wrapper parks the operation id in the caller's
	// slot and the store finds it by the key.
	lookupOp []atomic.Int64
	lookupNs []atomic.Int64 // the store span of the caller's last lookup

	mu      sync.Mutex
	joins   map[int64]storeJoin
	planEnd map[planKey]time.Time
}

type planKey struct {
	op    int64
	shard string
}

func newStoreTrace(rec *recorder, callers int) *storeTrace {
	return &storeTrace{
		rec: rec, callers: callers, shardNo: make(map[string]int),
		lookupOp: make([]atomic.Int64, callers), lookupNs: make([]atomic.Int64, callers),
		joins: make(map[int64]storeJoin), planEnd: make(map[planKey]time.Time),
	}
}

// opID numbers a client's seq-th operation; callerOf inverts it.
func (tr *storeTrace) callerOf(op int64) int { return int((op - 1) % int64(tr.callers)) }

func opID(seq int64, callers, caller int) int64 { return seq*int64(callers) + int64(caller) + 1 }

// handler wraps the service's handler with the service.handler span.
func (tr *storeTrace) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		if op == 0 {
			next.ServeHTTP(rw, r)
			return
		}
		start := time.Now()
		lookup := r.Method == http.MethodGet
		if lookup {
			tr.lookupOp[tr.callerOf(op)].Store(op)
		}
		next.ServeHTTP(rw, r.WithContext(context.WithValue(r.Context(), opKey{}, op)))
		if lookup {
			tr.lookupOp[tr.callerOf(op)].Store(0)
		}
		tr.rec.add(op, slotHandler, slotRoot, "service.handler", start, time.Now())
	})
}

func (tr *storeTrace) planned(ctx context.Context, shardID string, start, end time.Time) {
	op := opOf(ctx)
	if op == 0 {
		return
	}
	tr.rec.add(op, slotShardPlan+tr.shardNo[shardID], slotStore, "planner.choose."+shardID, start, end)
	tr.mu.Lock()
	tr.planEnd[planKey{op, shardID}] = end
	tr.mu.Unlock()
}

func (tr *storeTrace) ranJoin(op int64, name string, req mstore.JoinRequest, start, end time.Time) {
	tr.rec.add(op, slotStore, slotHandler, name, start, end)
	sj := storeJoin{start: start, end: end}
	if req.Telemetry != nil {
		sj.tel = readTelemetry(req.Telemetry)
	}
	tr.mu.Lock()
	tr.joins[op] = sj
	tr.mu.Unlock()
}

func (tr *storeTrace) takeJoin(op int64) (storeJoin, bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	sj, ok := tr.joins[op]
	delete(tr.joins, op)
	return sj, ok
}

// tracedStore decorates the store the service serves with spans around
// Run and Lookup.
type tracedStore struct {
	mstore.Store
	tr         *storeTrace
	lookupName string
}

func (t *tracedStore) Run(req mstore.JoinRequest) (mstore.JoinStats, error) {
	start := time.Now()
	st, err := t.Store.Run(req)
	if op := opOf(req.Ctx); op != 0 {
		t.tr.ranJoin(op, "mstore.run", req, start, time.Now())
	}
	return st, err
}

func (t *tracedStore) Lookup(part, index int) (mstore.LookupResult, error) {
	start := time.Now()
	res, err := t.Store.Lookup(part, index)
	end := time.Now()
	caller := index % t.tr.callers
	if op := t.tr.lookupOp[caller].Load(); op != 0 {
		t.tr.rec.add(op, slotStore, slotHandler, t.lookupName, start, end)
		t.tr.lookupNs[caller].Store(end.Sub(start).Nanoseconds())
	}
	return res, err
}

// tracedRouter is tracedStore over the shard router. It forwards the
// router's optional capabilities, which the service finds by type
// assertion: per-shard join detail and shard management.
type tracedRouter struct {
	tracedStore
	router *shard.Router
}

var (
	_ mstore.ShardRunner   = (*tracedRouter)(nil)
	_ service.ShardManager = (*tracedRouter)(nil)
)

func (t *tracedRouter) RunShards(req mstore.JoinRequest) (mstore.JoinStats, []mstore.ShardJoinStat, error) {
	start := time.Now()
	st, details, err := t.router.RunShards(req)
	end := time.Now()
	op := opOf(req.Ctx)
	if op == 0 {
		return st, details, err
	}
	t.tr.ranJoin(op, "shard.run_shards", req, start, end)
	// The router reports how long each shard ran, not when; a shard
	// starts when its planning ends (auto) or at the scatter.
	for _, d := range details {
		from := start
		t.tr.mu.Lock()
		if at, ok := t.tr.planEnd[planKey{op, d.Shard}]; ok {
			from = at
			delete(t.tr.planEnd, planKey{op, d.Shard})
		}
		t.tr.mu.Unlock()
		t.tr.rec.add(op, slotShard+t.tr.shardNo[d.Shard], slotStore, "mstore.run."+d.Shard, from, from.Add(time.Duration(d.ElapsedNs)))
	}
	return st, details, err
}

func (t *tracedRouter) AddShard(id, dir string, d int) error { return t.router.AddShard(id, dir, d) }
func (t *tracedRouter) RemoveShard(ctx context.Context, id string) error {
	return t.router.RemoveShard(ctx, id)
}

// serveInst is a served workload: service.New over one store or the
// router, an in-process listener on 127.0.0.1, and one keep-alive HTTP
// client per caller, each in a closed loop with zero think time.
type serveInst struct {
	spec    spec
	seed    int64
	callers int
	lt      layerTimes
	exp     mstore.JoinStats
	expSig  string
	tables  map[string]answers // by answering shard; "" for a single store

	srv     *service.Server
	httpSrv *http.Server
	served  chan error
	base    string
	tr      *storeTrace // nil when untraced
	clients []*client
}

func setupServe(s spec, dir string, seed int64, rep, callers int, rec *recorder) (*serveInst, error) {
	in := &serveInst{spec: s, seed: seed, callers: callers, tables: make(map[string]answers)}
	if rec != nil {
		in.tr = newStoreTrace(rec, callers)
	}
	pool := exec.NewPool(callers)
	dirs, err := buildStore(s, dir, seed, pool, &in.lt)
	pool.Close()
	if err != nil {
		return nil, err
	}

	// Expected answers, from the files, before anything is served.
	src, err := mstore.OpenDB(dirs.src, partitions)
	if err != nil {
		return nil, err
	}
	in.exp = src.ExpectedStats()
	var store mstore.Store
	if dirs.m == nil {
		in.tables[""] = readAnswers(src)
		if err := src.Close(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		db, err := mstore.OpenDB(dirs.src, partitions)
		if err != nil {
			return nil, err
		}
		in.lt.open = time.Since(t0).Seconds()
		store = db
		if in.tr != nil {
			store = &tracedStore{Store: db, tr: in.tr, lookupName: "mstore.lookup"}
		}
	} else {
		if err := src.Close(); err != nil {
			return nil, err
		}
		for k, e := range dirs.m.Shards {
			db, err := mstore.OpenDB(e.Dir, e.D)
			if err != nil {
				return nil, err
			}
			in.tables[e.ID] = readAnswers(db)
			if err := db.Close(); err != nil {
				return nil, err
			}
			if in.tr != nil {
				in.tr.shardNo[e.ID] = k
			}
		}
		t0 := time.Now()
		router, err := openRouter(dirs.m, in.tr)
		if err != nil {
			return nil, err
		}
		in.lt.shardOpen = time.Since(t0).Seconds()
		store = router
		if in.tr != nil {
			store = &tracedRouter{
				tracedStore: tracedStore{Store: router, tr: in.tr, lookupName: "shard.lookup"},
				router:      router,
			}
		}
	}

	t0 := time.Now()
	in.srv, err = service.New(service.Config{
		Store:  store,
		TmpDir: filepath.Join(dir, "svc-tmp"),
		// One default grant: admission is on the blocking path whenever
		// two callers join at once.
		MemBudget: int64(partitions) << 22,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	in.lt.serviceNew = time.Since(t0).Seconds()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.srv.Close()
		return nil, err
	}
	handler := in.srv.Handler()
	if in.tr != nil {
		handler = in.tr.handler(handler)
	}
	in.httpSrv = &http.Server{Handler: handler}
	in.served = make(chan error, 1)
	go func() { in.served <- in.httpSrv.Serve(ln) }()
	in.base = "http://" + ln.Addr().String()
	in.expSig = fmt.Sprintf("%016x", in.exp.Signature)

	for c := range callers {
		in.clients = append(in.clients, &client{
			id: c, in: in,
			http:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute},
			stream: s.stream(seed, rep, callers, c),
		})
	}
	if err := in.warm(); err != nil {
		in.close()
		return nil, fmt.Errorf("%s: warm-up: %w", s.name, err)
	}
	return in, nil
}

func (in *serveInst) expected() mstore.JoinStats { return in.exp }
func (in *serveInst) layers() layerTimes         { return in.lt }

func (in *serveInst) corruptExpected() {
	in.exp.Signature ^= 1
	in.expSig = fmt.Sprintf("%016x", in.exp.Signature)
}

func (in *serveInst) speedups(time.Duration) (map[string]series, error) { return nil, nil }

// close drains the service, stops the listener and waits for the serve
// goroutine, then unmaps the store.
func (in *serveInst) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, c := range in.clients {
		c.http.CloseIdleConnections()
	}
	err := in.srv.Drain(ctx)
	if serr := in.httpSrv.Shutdown(ctx); err == nil {
		err = serr
	}
	<-in.served
	if cerr := in.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// warm sends, from every client at once, one join per algorithm and a
// few lookups, unnumbered so a traced instance records nothing.
func (in *serveInst) warm() error {
	errs := make(chan error, len(in.clients))
	for _, c := range in.clients {
		go func() {
			warm := in.spec.stream(in.seed, -1, in.callers, c.id)
			scratch := newPhase()
			for _, alg := range append([]string{"auto"}, opNames(in.spec.ops())...) {
				if err := c.join(scratch, alg, 0); err != nil {
					errs <- err
					return
				}
			}
			for range warmLookups {
				if err := c.lookup(scratch, warm.keys.next(), 0); err != nil {
					errs <- err
					return
				}
			}
			if scratch.failed > 0 {
				errs <- fmt.Errorf("%d of %d warm-up operations failed", scratch.failed, scratch.attempted)
				return
			}
			errs <- nil
		}()
	}
	var first error
	for range in.clients {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func opNames(ops []join.Algorithm) []string {
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = op.String()
	}
	return names
}

// stats reads /v1/stats and folds the pool counters a join's morsels
// run on: the service's shared pool for one store, the shards' private
// pools behind the router.
func (in *serveInst) stats() (poolDelta, admissionDelta, error) {
	resp, err := in.clients[0].http.Get(in.base + "/v1/stats")
	if err != nil {
		return poolDelta{}, admissionDelta{}, err
	}
	defer resp.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return poolDelta{}, admissionDelta{}, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	pools := []exec.Stats{st.Pool}
	if len(st.DB.Shards) > 0 {
		pools = pools[:0]
		for _, sh := range st.DB.Shards {
			pools = append(pools, sh.Pool)
		}
	}
	var pd poolDelta
	for _, p := range pools {
		pd.executed += p.Executed
		pd.steals += p.Steals
		pd.peakBusy = max(pd.peakBusy, p.PeakBusy)
	}
	ad := admissionDelta{admitted: st.Admission.Admitted, queued: st.Admission.Queued, rejected: st.Admission.Rejected}
	return pd, ad, nil
}

// extension is how long past its length a served phase may run to
// reach its minimum sample counts before the run fails.
const extension = 60 * time.Second

func (in *serveInst) run(dur time.Duration, need minimums) (*phase, error) {
	poolBefore, admBefore, err := in.stats()
	if err != nil {
		return nil, err
	}
	for _, c := range in.clients {
		c.ph = newPhase()
		c.err = nil
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range in.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(&stop)
		}()
	}
	time.Sleep(dur)
	for !in.enough(need) && time.Since(start) < dur+extension {
		time.Sleep(20 * time.Millisecond)
	}
	enough := in.enough(need)
	stop.Store(true)
	wg.Wait()

	ph := newPhase()
	for _, c := range in.clients {
		if c.err != nil {
			return nil, fmt.Errorf("%s: client %d: %w", in.spec.name, c.id, c.err)
		}
		ph.merge(c.ph)
	}
	ph.window = time.Since(start)
	if !enough {
		return nil, fmt.Errorf("%s: %v past its %v the phase still lacks %d joins per algorithm and %d lookups",
			in.spec.name, extension, dur, need.joins, need.lookups)
	}
	poolAfter, admAfter, err := in.stats()
	if err != nil {
		return nil, err
	}
	ph.pool = poolDelta{executed: poolAfter.executed - poolBefore.executed, steals: poolAfter.steals - poolBefore.steals, peakBusy: poolAfter.peakBusy}
	ph.admission = admissionDelta{
		admitted: admAfter.admitted - admBefore.admitted,
		queued:   admAfter.queued - admBefore.queued,
		rejected: admAfter.rejected - admBefore.rejected,
	}
	return ph, nil
}

// enough reports whether the clients together hold the minimum counts.
func (in *serveInst) enough(need minimums) bool {
	lookups := int64(0)
	joins := make([]int64, 1+len(in.spec.ops()))
	for _, c := range in.clients {
		lookups += c.lookups.Load()
		for i := range joins {
			joins[i] += c.joins[i].Load()
		}
	}
	for _, n := range joins {
		if n < int64(need.joins) {
			return false
		}
	}
	return lookups >= int64(need.lookups)
}

// client is one caller: a keep-alive connection and a seeded stream.
type client struct {
	id     int
	in     *serveInst
	http   *http.Client
	stream *opStream
	seq    int64

	ph  *phase // this client's share of the running phase
	err error

	// Progress the coordinator reads while the client runs; joins[0]
	// is auto, joins[1+i] the i-th operator.
	lookups atomic.Int64
	joins   [1 + 6]atomic.Int64
}

// maxClientErrors stops a client whose requests keep failing in
// transport, so a dead server ends the run instead of spinning.
const maxClientErrors = 20

func (c *client) loop(stop *atomic.Bool) {
	c.lookups.Store(0)
	for i := range c.joins {
		c.joins[i].Store(0)
	}
	algIndex := map[string]int{"auto": 0}
	for i, name := range opNames(c.in.spec.ops()) {
		algIndex[name] = 1 + i
	}
	bad := 0
	for !stop.Load() {
		op := c.stream.next()
		c.seq++
		id := int64(0)
		if c.in.tr != nil {
			id = opID(c.seq, c.in.callers, c.id)
		}
		var err error
		if op.join {
			err = c.join(c.ph, op.alg, id)
			c.joins[algIndex[op.alg]].Add(1)
		} else {
			err = c.lookup(c.ph, op.key, id)
			c.lookups.Add(1)
		}
		if err == nil {
			bad = 0
		} else if bad++; bad >= maxClientErrors {
			c.err = fmt.Errorf("%d requests in a row failed, last: %w", bad, err)
			return
		}
	}
}

// roundTrip sends one request and returns the status, the body and the
// time from send to last body byte.
func (c *client) roundTrip(method, url string, body []byte, op int64) (int, []byte, time.Time, time.Time, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Time{}, time.Time{}, err
	}
	if op != 0 {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, start, time.Now(), err
	}
	data, err := io.ReadAll(resp.Body)
	end := time.Now()
	resp.Body.Close()
	return resp.StatusCode, data, start, end, err
}

// join posts one join and checks Pairs and Signature. An error return
// is a transport failure; a refusal or a wrong answer only counts as a
// failed operation.
func (c *client) join(ph *phase, alg string, op int64) error {
	body, _ := json.Marshal(service.JoinRequest{Algorithm: alg}) // a struct of strings and ints cannot fail
	status, data, start, end, err := c.roundTrip(http.MethodPost, c.in.base+"/v1/join", body, op)
	ph.attempted++
	if err != nil {
		ph.failed++
		return err
	}
	var resp service.JoinResponse
	if status != http.StatusOK || json.Unmarshal(data, &resp) != nil ||
		resp.Pairs != c.in.exp.Pairs || resp.Signature != c.in.expSig {
		ph.failed++
		return nil
	}
	ph.pairs += resp.Pairs
	s := joinSample{
		op: op, alg: alg, total: end.Sub(start).Nanoseconds(),
		queueNs: resp.QueueWaitNs, elapsedNs: resp.ElapsedNs, predictedNs: resp.PredictedNs,
	}
	for _, sh := range resp.Shards {
		s.shardNs = append(s.shardNs, sh.ElapsedNs)
	}
	if op != 0 {
		c.in.tr.rec.add(op, slotRoot, -1, "client.join."+alg, start, end)
		if sj, ok := c.in.tr.takeJoin(op); ok {
			s.storeStart, s.storeNs = sj.start, sj.end.Sub(sj.start).Nanoseconds()
			s.tel, s.hasTel = sj.tel, alg == "grace" || alg == "hybrid-hash"
			// Admission wait is reported, not observed: it ends where
			// the store span starts.
			c.in.tr.rec.add(op, slotAdmission, slotHandler, "service.admission",
				sj.start.Add(-time.Duration(resp.QueueWaitNs)), sj.start)
		}
	}
	ph.addJoin(s)
	return nil
}

// lookup gets one R object's dereference and checks it against the
// table of the store (or shard) that answered.
func (c *client) lookup(ph *phase, k key, op int64) error {
	url := fmt.Sprintf("%s/v1/lookup?part=%d&index=%d", c.in.base, k.part, k.index)
	status, data, start, end, err := c.roundTrip(http.MethodGet, url, nil, op)
	ph.attempted++
	if err != nil {
		ph.failed++
		return err
	}
	var resp service.LookupResponse
	if status != http.StatusOK || json.Unmarshal(data, &resp) != nil {
		ph.failed++
		return nil
	}
	table, ok := c.in.tables[resp.Shard]
	if !ok || resp.RPart != k.part || resp.RIndex != k.index || !table.matches(k, mstore.LookupResult{
		RID: resp.RID, SPart: resp.SPart, SIndex: resp.SIndex, SWord: resp.SWord,
	}) {
		ph.failed++
		return nil
	}
	total := end.Sub(start).Nanoseconds()
	ph.lookups = append(ph.lookups, float64(total))
	if op != 0 {
		c.in.tr.rec.add(op, slotRoot, -1, "client.lookup", start, end)
		storeNs := c.in.tr.lookupNs[c.id].Load()
		ph.storeLookups = append(ph.storeLookups, float64(storeNs))
		ph.lookupOverheads = append(ph.lookupOverheads, float64(total-storeNs))
	}
	return nil
}
