// Command mmdb exercises the real memory-mapped single-level store: it
// creates partitioned relations in mmap-backed segment files, runs the
// three parallel pointer-based joins over the mapped data with actual
// goroutines, verifies they agree, and reports wall-clock times.
//
// Usage:
//
//	mmdb create -dir DIR [-objects N] [-d D] [-objsize B] [-seed N] [-index]
//	mmdb index  -dir DIR [-d D] [-workers N]
//	mmdb join   -dir DIR [-alg all|auto|nested-loops|sort-merge|grace|hybrid-hash|index-nl|index-merge] [-k K] [-mrproc B] [-workers N]
//	mmdb split  -src DIR -out DIR [-shards N] [-d D]
//	mmdb serve  {-dir DIR | -shard-map FILE} [-addr :PORT] [-membudget B] [-maxqueue N] [-workers N]
//
// index bulk-loads persistent per-partition B-tree indexes into an
// existing database's segments (create -index does it at creation
// time); an indexed store unlocks the index-nl and index-merge join
// paths, and the planner considers them for -alg auto. split rewrites
// one database into N shard databases (R partitioned round-robin, S
// replicated) plus a shard-map file; serve -shard-map mounts them
// behind the scatter-gather router instead of a single mapped store.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
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

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "create":
		cmdCreate(os.Args[2:])
	case "index":
		cmdIndex(os.Args[2:])
	case "join":
		cmdJoin(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "split":
		cmdSplit(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mmdb create|index|join|verify|split|serve [flags]")
	os.Exit(2)
}

func cmdSplit(args []string) {
	fs := flag.NewFlagSet("split", flag.ExitOnError)
	src := fs.String("src", "", "source database directory")
	out := fs.String("out", "", "output directory (shard-K subdirs and shards.json are created here)")
	shards := fs.Int("shards", 3, "shard count")
	d := fs.Int("d", 4, "partitions the source was created with")
	fs.Parse(args)
	if *src == "" || *out == "" {
		fatal(fmt.Errorf("split: -src and -out required"))
	}
	if *shards < 1 {
		fatal(fmt.Errorf("split: -shards must be >= 1"))
	}
	start := time.Now()
	dirs := make([]string, *shards)
	for k := range dirs {
		dirs[k] = filepath.Join(*out, fmt.Sprintf("shard-%d", k))
	}
	m, err := shard.Split(*src, *d, dirs)
	if err != nil {
		fatal(err)
	}
	mapPath := filepath.Join(*out, "shards.json")
	if err := shard.WriteMap(mapPath, m); err != nil {
		fatal(err)
	}
	fmt.Printf("split %s into %d shards under %s (map: %s) in %v\n",
		*src, *shards, *out, mapPath, time.Since(start).Round(time.Millisecond))
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	dir := fs.String("dir", "", "database directory (single-store mode)")
	shardMap := fs.String("shard-map", "", "shard-map file (sharded scatter-gather mode; overrides -dir)")
	d := fs.Int("d", 4, "partitions the database was created with (single-store mode)")
	addr := fs.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
	budget := fs.Int64("membudget", 0, "total join-memory budget, bytes (0: default)")
	grant := fs.Int64("grant", 0, "default per-request memory grant, bytes (0: default)")
	maxQueue := fs.Int("maxqueue", 0, "admission queue bound (0: default, <0: no queue)")
	timeout := fs.Duration("timeout", 0, "per-request timeout (0: default)")
	workers := fs.Int("workers", 0, "size of the one morsel pool every join shares, single or sharded (0: GOMAXPROCS)")
	drainWait := fs.Duration("drainwait", 30*time.Second, "graceful drain limit on SIGTERM")
	fs.Parse(args)
	if *dir == "" && *shardMap == "" {
		fatal(fmt.Errorf("serve: -dir or -shard-map required"))
	}

	cfg := service.Config{
		MemBudget: *budget, DefaultGrant: *grant, MaxQueue: *maxQueue,
		RequestTimeout: *timeout, Workers: *workers,
	}
	serving := *dir
	var err error
	if *shardMap != "" {
		cfg.Store, err = openRouter(*shardMap)
		serving = *shardMap
	} else {
		cfg.Store, err = mstore.OpenDB(*dir, *d)
	}
	if err != nil {
		fatal(err)
	}
	s, err := service.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer s.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	fmt.Printf("mmdb: serving %s on http://%s (POST /v1/join, GET /v1/lookup /v1/stats /v1/healthz /v1/shards)\n",
		serving, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	fmt.Println("mmdb: draining…")
	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "mmdb:", err)
	}
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "mmdb:", err)
	}
	fmt.Println("mmdb: drained, bye")
}

// routerCalOps is the calibration effort of the router's per-shard auto
// planner; a single store plans on its own measured profile instead.
const routerCalOps = 400

// openRouter mounts a shard map behind the scatter-gather router, wiring
// per-shard auto planning through the calibrated analytical model: each
// shard's PlanFunc call costs that shard's own measured workload, so a
// skewed shard may pick a different algorithm than its peers.
func openRouter(mapPath string) (*shard.Router, error) {
	m, err := shard.LoadMap(mapPath)
	if err != nil {
		return nil, err
	}
	mcfg := machine.DefaultConfig()
	mcfg.D = m.Shards[0].D
	calib := model.Calibrate(mcfg, routerCalOps, 1)
	pl := planner.New(calib, nil)
	plIdx := planner.New(calib, planner.IndexAlgorithms)
	// The router is captured so each plan call can consult the live
	// Indexed stat: index plans are only proposed when every shard can
	// execute them (Indexed is the AND over live shards).
	var r *shard.Router
	planFn := func(id string, w *relation.Workload, req mstore.JoinRequest) (join.Algorithm, error) {
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
		return choice.Best.Algorithm, nil
	}
	r, err = shard.Open(m, shard.Config{MapPath: mapPath, PlanFunc: planFn})
	return r, err
}

func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("dir", "", "database directory")
	d := fs.Int("d", 4, "partitions")
	fs.Parse(args)
	if *dir == "" {
		fatal(fmt.Errorf("verify: -dir required"))
	}
	db, err := mstore.OpenDB(*dir, *d)
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	if err := db.Verify(); err != nil {
		fatal(err)
	}
	objs := 0
	for _, rel := range db.R {
		objs += rel.Count()
	}
	fmt.Printf("ok: %d R objects across %d partitions, all pointers valid\n", objs, db.D)
}

func cmdCreate(args []string) {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	dir := fs.String("dir", "", "database directory")
	objects := fs.Int("objects", 100000, "objects per relation")
	d := fs.Int("d", 4, "partitions")
	objSize := fs.Int("objsize", 128, "object size in bytes")
	seed := fs.Int64("seed", 1, "workload seed")
	index := fs.Bool("index", false, "bulk-load persistent B-tree indexes after creation")
	workers := fs.Int("workers", 0, "bulk-load parallelism (0: GOMAXPROCS; with -index)")
	fs.Parse(args)
	if *dir == "" {
		fatal(fmt.Errorf("create: -dir required"))
	}
	start := time.Now()
	db, err := mstore.CreateDB(*dir, *d, *objects, *objects, *objSize, *seed)
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	fmt.Printf("created %d R + %d S objects (%d B each) over %d segment pairs in %v\n",
		*objects, *objects, *objSize, *d, time.Since(start).Round(time.Millisecond))
	if *index {
		buildIndexes(db, *workers)
	}
}

// buildIndexes bulk-loads the persistent indexes on a pool of the given
// size and prints the build time.
func buildIndexes(db *mstore.DB, workers int) {
	p := exec.NewPool(workers)
	defer p.Close()
	start := time.Now()
	if err := db.BuildIndexes(context.Background(), p); err != nil {
		fatal(err)
	}
	fmt.Printf("indexed %d R + %d S objects over %d B-tree pairs in %v\n",
		db.CountR(), db.CountS(), db.D, time.Since(start).Round(time.Millisecond))
}

func cmdIndex(args []string) {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	dir := fs.String("dir", "", "database directory")
	d := fs.Int("d", 4, "partitions the database was created with")
	workers := fs.Int("workers", 0, "bulk-load parallelism (0: GOMAXPROCS)")
	fs.Parse(args)
	if *dir == "" {
		fatal(fmt.Errorf("index: -dir required"))
	}
	db, err := mstore.OpenDB(*dir, *d)
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	if db.HasIndexes() {
		fmt.Println("already indexed")
		return
	}
	buildIndexes(db, *workers)
	if err := db.VerifyIndexes(); err != nil {
		fatal(err)
	}
}

func cmdJoin(args []string) {
	fs := flag.NewFlagSet("join", flag.ExitOnError)
	dir := fs.String("dir", "", "database directory")
	alg := fs.String("alg", "all", "algorithm: all, auto (planner-chosen), nested-loops, sort-merge, grace, hybrid-hash, index-nl, index-merge")
	d := fs.Int("d", 4, "partitions the database was created with")
	k := fs.Int("k", 0, "Grace and hybrid-hash bucket count, folded past 256 to the destinations one scan fans out to (0: derive from -mrproc)")
	mrproc := fs.Int64("mrproc", 1<<20, "private memory grant per partition goroutine, bytes")
	workers := fs.Int("workers", 0, "morsel-pool size, the CPU parallelism (0: GOMAXPROCS)")
	fs.Parse(args)
	if *dir == "" {
		fatal(fmt.Errorf("join: -dir required"))
	}
	// Deferred first, so it runs last: after every line is printed and
	// the store is closed, a mismatched line fails the command.
	mismatched := false
	defer func() {
		if mismatched {
			fatal(fmt.Errorf("join: verification mismatch"))
		}
	}()
	db, err := mstore.OpenDB(*dir, *d)
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	pool := exec.NewPool(*workers)
	defer pool.Close()

	req := mstore.JoinRequest{MRproc: *mrproc, K: *k, Pool: pool}
	var want *mstore.JoinStats
	run := func(a join.Algorithm, note string) {
		req.Algorithm = a
		start := time.Now()
		st, err := db.Run(req)
		if err != nil {
			fatal(err)
		}
		elapsed := time.Since(start)
		if want == nil {
			// The ground truth reads every object: count it after the
			// first join, so that join times the store as opened.
			exp := db.ExpectedStats()
			want = &exp
		}
		ok := "OK"
		if st != *want {
			ok, mismatched = "MISMATCH", true
		}
		fmt.Printf("%-12s  %8d pairs  %10v  verification %s%s\n",
			a, st.Pairs, elapsed.Round(time.Microsecond), ok, note)
	}
	ops := mstore.Operators(db.HasIndexes())
	if *alg == "auto" {
		// Explain the join under every operator — the store's own plan,
		// priced on its measured profile — and run the cheapest, as the
		// service's auto does.
		plans, err := mstore.Rank(db, req, ops)
		if err != nil {
			fatal(err)
		}
		for _, p := range plans {
			fmt.Printf("  plan: %-12s predicted %10v  (staged %d, arena %d B)\n",
				p.Algorithm, time.Duration(p.PredictedNs).Round(time.Microsecond), p.Staged, p.ArenaBytes)
		}
		run(plans[0].Algorithm, fmt.Sprintf("  (predicted %v)", time.Duration(plans[0].PredictedNs).Round(time.Microsecond)))
		return
	}
	if *alg == "all" {
		for _, a := range ops {
			run(a, "")
		}
		return
	}
	// Any operator name runs: Run itself refuses an index join on a
	// store without indexes.
	for _, a := range mstore.Operators(true) {
		if *alg == a.String() {
			run(a, "")
			return
		}
	}
	fatal(fmt.Errorf("join: unknown -alg %q (want all, auto or one of %v)", *alg, mstore.Operators(true)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mmdb:", err)
	os.Exit(1)
}
