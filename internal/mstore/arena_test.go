package mstore

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"os"
	osexec "os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"unsafe"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
)

func cmpRef(a, b ref) int {
	return cmp.Or(cmp.Compare(a.off, b.off), cmp.Compare(a.rid, b.rid))
}

// TestArenaPartitionInPlace: the one re-partitioning primitive under
// orderProbe and the profile moves every reference into its class's
// range, losing and duplicating none, for any class sizes — empty ones
// included.
func TestArenaPartitionInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		classes := 1 + rng.Intn(20)
		refs := make([]ref, rng.Intn(500))
		bounds := make([]int, classes+1)
		for x := range refs {
			c := rng.Intn(classes)
			if classes > 2 && c%3 == 1 {
				c-- // leave some classes empty
			}
			refs[x] = ref{off: Ptr(c), rid: uint64(x)}
			bounds[c+1]++
		}
		for c := range classes {
			bounds[c+1] += bounds[c]
		}
		partition(refs, bounds, func(e ref) int { return int(e.off) })
		seen := make([]bool, len(refs))
		for c := range classes {
			for _, e := range refs[bounds[c]:bounds[c+1]] {
				if int(e.off) != c || seen[e.rid] {
					t.Fatalf("trial %d: class %d range holds %+v (seen=%v)", trial, c, e, seen[e.rid])
				}
				seen[e.rid] = true
			}
		}
	}
}

// TestArenaExtentsTileExactly is the layout property: for random
// destination counts (random k, random cell-to-bucket tables drawn from
// a random many-to-one bucket map that leaves destinations empty, and a
// random resident-cell prefix per S partition) at workers {1, 2, 4, 8},
// the scan's k destinations a row are the extents handed to finish: they
// tile the arena exactly — no gap, no overlap, the arena's refs exactly
// the staged references, as the layout's last start says — and each
// holds exactly the multiset of references the scan should have staged
// there.
// Under -race it is also the proof that concurrent morsels claiming
// runs of one extent never share a slot.
func TestArenaExtentsTileExactly(t *testing.T) {
	db := makeDB(t, 3*morselObjs+123)
	h := histOf(t, db)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 24; trial++ {
		workers := []int{1, 2, 4, 8}[trial%4]
		k := 1 + rng.Intn(60)
		bucketOf := make([]int32, k)
		for b := range bucketOf {
			bucketOf[b] = int32(rng.Intn(k))
		}
		tables := make([][]int32, db.D)
		for j := range tables {
			tables[j] = make([]int32, len(h.cells[j]))
			resident := rng.Intn(len(tables[j])/2 + 1)
			for c := range tables[j] {
				tables[j][c] = -1
				if c >= resident {
					tables[j][c] = bucketOf[rng.Intn(k)]
				}
			}
		}
		cfg := h.byCell(k, tables)
		dest := func(j int, off Ptr) int {
			m := cfg.maps[0][j]
			return int(m.bucket[uint64(off-m.base)>>m.shift])
		}
		want := make([][]ref, db.D*k)
		staged := 0
		for _, ri := range db.R {
			for x := 0; x < ri.Count(); x++ {
				obj := ri.Object(x)
				if p := DecodeSPtr(obj); dest(int(p.Part), p.Off) >= 0 {
					dst := int(p.Part)*k + dest(int(p.Part), p.Off)
					want[dst] = append(want[dst], ref{off: p.Off, rid: ridFromObj(obj)})
					staged++
				}
			}
		}

		type extent struct {
			lo, dst int
			refs    []ref
		}
		var mu sync.Mutex
		var got []extent
		r, done := newTestRun(t, db, workers, nil)
		cfg.finish = func(s *stagedRun, _, part int, refs []ref) error {
			// refs is a two-index slice of the arena, so its capacity
			// runs to the arena's end and gives away where it starts.
			e := extent{
				lo:   len(s.tmp.refs) - cap(refs),
				dst:  part*k + dest(part, refs[0].off),
				refs: slices.Clone(refs),
			}
			mu.Lock()
			got = append(got, e)
			mu.Unlock()
			return nil
		}
		err := stagedJob(r, cfg)
		arenaRefs := len(r.tmp.refs)
		done()
		if err != nil {
			t.Fatal(err)
		}
		if arenaRefs != staged || cfg.starts[db.D*k] != staged {
			t.Fatalf("trial %d: arena holds %d references and the layout %d, want the %d staged",
				trial, arenaRefs, cfg.starts[db.D*k], staged)
		}
		slices.SortFunc(got, func(a, b extent) int { return cmp.Compare(a.lo, b.lo) })
		next := 0
		for _, e := range got {
			if e.lo != next {
				t.Fatalf("trial %d: extent of destination %d starts at %d, previous one ended at %d", trial, e.dst, e.lo, next)
			}
			next += len(e.refs)
			slices.SortFunc(e.refs, cmpRef)
			slices.SortFunc(want[e.dst], cmpRef)
			if !slices.Equal(e.refs, want[e.dst]) {
				t.Fatalf("trial %d (k=%d w=%d): destination %d read back %d references, staged %d, or their contents differ",
					trial, k, workers, e.dst, len(e.refs), len(want[e.dst]))
			}
			want[e.dst] = nil
		}
		if next != staged {
			t.Fatalf("trial %d: extents cover %d of %d staged references", trial, next, staged)
		}
		for dst, w := range want {
			if len(w) != 0 {
				t.Fatalf("trial %d: destination %d's %d references never reached a finish", trial, dst, len(w))
			}
		}
	}
}

// TestArenaNameCollision: two live arenas drawn from one set in one
// directory are distinct mappings, opening the second leaves the
// first's references intact, and neither shows a file in the directory.
func TestArenaNameCollision(t *testing.T) {
	dir := t.TempDir()
	var set arenaSet
	defer set.close()
	first := tempArena{set: &set, dir: dir, tel: &JoinTelemetry{}}
	if err := first.open(1000); err != nil {
		t.Fatal(err)
	}
	defer first.close()
	for x := range first.refs {
		first.refs[x] = ref{off: Ptr(x), rid: uint64(3 * x)}
	}
	second := tempArena{set: &set, dir: dir, tel: &JoinTelemetry{}}
	if err := second.open(10); err != nil {
		t.Fatal(err)
	}
	defer second.close()
	if lo, hi := span(first.seg.data), span(second.seg.data); lo[0] < hi[1] && hi[0] < lo[1] {
		t.Fatalf("two live arenas share memory: %x and %x", lo, hi)
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
		t.Fatalf("two live arenas show the files %v (%v): want none", files, err)
	}
	for x, e := range first.refs {
		if e != (ref{off: Ptr(x), rid: uint64(3 * x)}) {
			t.Fatalf("the first arena's reference %d reads %+v", x, e)
		}
	}
}

// span is the address range [lo, hi) of b's bytes.
func span(b []byte) [2]uintptr {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return [2]uintptr{lo, lo + uintptr(len(b))}
}

// TestArenaOpenFailureLeavesNothing: an arena whose file cannot be
// sized (2^48 bytes is past any file size ext4 or a mapping allows)
// fails to open and leaves its directory empty.
func TestArenaOpenFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	var set arenaSet
	defer set.close()
	a := tempArena{set: &set, dir: dir, tel: &JoinTelemetry{}}
	if err := a.open(1 << 44); err == nil {
		a.close()
		t.Fatal("an arena of 2^44 references opened")
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("a failed open left %v (%v)", left, err)
	}
	if a.seg != nil || a.tel.TempFiles.Load() != 0 || idleArenas(&set) != 0 {
		t.Fatal("a failed open counted or kept an arena")
	}
}

// idleArenas is how many arenas set keeps mapped.
func idleArenas(set *arenaSet) int {
	set.mu.Lock()
	defer set.mu.Unlock()
	return len(set.idle)
}

// TestArenaReusedAcrossJoins: a handle keeps its arena mapped between
// joins. Its first staging join creates one, a second that fits
// creates none, and one that stages more than the idle arena holds
// replaces it — nested loops stages only the references that leave
// their partition, Grace all of them — so the set holds one arena after
// every join, every answer is exact, and no arena file is ever visible.
func TestArenaReusedAcrossJoins(t *testing.T) {
	db := makeDB(t, 4000)
	want := db.ExpectedStats()
	for x, step := range []struct {
		alg   join.Algorithm
		files int64
	}{
		{join.NestedLoops, 1}, // the handle's first arena
		{join.Grace, 1},       // stages all 4000: replaces it
		{join.Grace, 0},
		{join.NestedLoops, 0}, // fits in Grace's
		{join.Grace, 0},
	} {
		var tel JoinTelemetry
		st, err := db.Run(JoinRequest{Algorithm: step.alg, Telemetry: &tel})
		if err != nil || st != want {
			t.Fatalf("join %d (%v): %+v, %v; want %+v", x, step.alg, st, err, want)
		}
		if got := tel.TempFiles.Load(); got != step.files {
			t.Fatalf("join %d (%v) created %d arenas, want %d", x, step.alg, got, step.files)
		}
		if n := idleArenas(&db.arenas); n != 1 {
			t.Fatalf("join %d (%v): the handle keeps %d arenas, want 1", x, step.alg, n)
		}
		if left := arenaFiles(t, db.Dir); len(left) != 0 {
			t.Fatalf("join %d (%v) left %v", x, step.alg, left)
		}
	}
}

// TestConcurrentJoinsTakeDistinctArenas: eight goroutines running
// Grace and hybrid-hash joins three times each on one handle, sharing
// one TmpDir, never hold the same arena memory while both are live —
// each run's arena mapping is checked against every other live run's —
// and every answer is exact. Afterwards the handle keeps at most eight
// arenas and the TmpDir shows none. Under -race it is also the proof
// that a reused arena is handed to one join at a time.
func TestConcurrentJoinsTakeDistinctArenas(t *testing.T) {
	db := makeDB(t, 4000)
	want := db.ExpectedStats()
	h := histOf(t, db)
	p := newPool(t, 2)
	tmp := filepath.Join(t.TempDir(), "shared")
	var mu sync.Mutex
	live := map[*joinRun][2]uintptr{}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := JoinRequest{Algorithm: join.Grace, K: 4}
			if g%2 == 1 {
				req = JoinRequest{Algorithm: join.HybridHash, MRproc: 16 << 10}
			}
			for range 3 {
				cfg := h.layout(db.planKey(req, p.Workers())).cfg
				finish := cfg.finish
				cfg.finish = func(s *stagedRun, w, part int, refs []ref) error {
					mine := span(s.tmp.seg.data)
					mu.Lock()
					for other, rg := range live {
						if other != s.joinRun && rg[0] < mine[1] && mine[0] < rg[1] {
							t.Errorf("two live joins share arena memory: %x and %x", mine, rg)
						}
					}
					live[s.joinRun] = mine
					mu.Unlock()
					return finish(s, w, part, refs)
				}
				r := newJoinRun(context.Background(), db, p, nil, tmp)
				err := stagedJob(r, cfg)
				mu.Lock()
				delete(live, r)
				mu.Unlock()
				r.tmp.close()
				if st := r.stats.total(); err != nil || st != want {
					t.Errorf("%v: %+v, %v; want %+v", req.Algorithm, st, err, want)
				}
			}
		}()
	}
	wg.Wait()
	if n := idleArenas(&db.arenas); n < 1 || n > 8 {
		t.Fatalf("the handle keeps %d arenas after eight concurrent joins", n)
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Fatalf("shared TmpDir after the joins: %v, holding %v", err, left)
	}
}

// arenaFiles lists the arena files in dir.
func arenaFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "arena-*"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// arenaMappings returns the lines of /proc/self/maps that map an arena
// file of dir.
func arenaMappings(t *testing.T, dir string) []string {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	var lines []string
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, filepath.Join(dir, "arena-")) {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestDBCloseReleasesArenas: after a finished join and a cancelled one,
// the handle still maps the arena they shared; Close unmaps it, and an
// arena a run still holds when Close runs is unmapped when the run
// returns it.
func TestDBCloseReleasesArenas(t *testing.T) {
	db := makeDB(t, 4000)
	held := newJoinRun(context.Background(), db, newPool(t, 1), nil, "")
	if err := held.tmp.open(5000); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Run(JoinRequest{Algorithm: join.Grace}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Run(JoinRequest{Algorithm: join.SortMerge, Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("a cancelled join returned %v", err)
	}
	if got := arenaMappings(t, db.Dir); len(got) != 2 {
		t.Fatalf("before Close the handle maps the arenas %q, want the idle one and the held one", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := arenaMappings(t, db.Dir); len(got) != 1 {
		t.Fatalf("after Close the handle maps the arenas %q, want only the held one", got)
	}
	held.tmp.close()
	if got := arenaMappings(t, db.Dir); len(got) != 0 {
		t.Fatalf("an arena returned after Close is still mapped: %q", got)
	}
}

// killedJoinDir names, in the environment of the child process
// TestKilledJoinLeavesNoArena starts, the directory the child joins in.
const killedJoinDir = "MSTORE_TEST_KILLED_JOIN_DIR"

// TestKilledJoinLeavesNoArena: a process killed in the middle of a
// staging join leaves no arena file behind, because the arena's file is
// unlinked as soon as it is mapped. The test runs itself again as a
// child, which builds a store and starts a Grace join with its temp
// arena in a directory of the parent's, then SIGKILLs itself from the
// join's first finish, when the arena holds every staged reference.
func TestKilledJoinLeavesNoArena(t *testing.T) {
	if dir := os.Getenv(killedJoinDir); dir != "" {
		db, err := CreateDB(filepath.Join(dir, "db"), 4, 4000, 4000, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := histOf(t, db).grace(4)
		cfg.finish = func(*stagedRun, int, int, []ref) error {
			return syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
		p := exec.NewPool(1)
		t.Fatalf("the join outlived SIGKILL: %v", stagedJob(newJoinRun(context.Background(), db, p, nil, filepath.Join(dir, "tmp")), cfg))
	}
	dir := t.TempDir()
	child := osexec.Command(os.Args[0], "-test.run=^TestKilledJoinLeavesNoArena$")
	child.Env = append(os.Environ(), killedJoinDir+"="+dir)
	out, err := child.CombinedOutput()
	var exit *osexec.ExitError
	if !errors.As(err, &exit) || exit.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("the child was not killed mid-join: %v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "tmp")); err != nil {
		t.Fatalf("the child never made its arena directory: %v\n%s", err, out)
	}
	for _, sub := range []string{"db", "tmp"} {
		if left := arenaFiles(t, filepath.Join(dir, sub)); len(left) != 0 {
			t.Fatalf("a join killed mid-way left %v in %s", left, sub)
		}
	}
}

// TestRunSharesTmpDir: concurrent Grace and hybrid-hash joins sharing one
// explicit TmpDir each create their own arena file in it, return the
// ground truth, and leave the TmpDir empty.
func TestRunSharesTmpDir(t *testing.T) {
	db := makeDB(t, 4000)
	want := db.ExpectedStats()
	tmp := filepath.Join(t.TempDir(), "shared")
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := JoinRequest{Algorithm: join.Grace, K: 4, TmpDir: tmp}
			if g%2 == 1 {
				req = JoinRequest{Algorithm: join.HybridHash, MRproc: 16 << 10, TmpDir: tmp}
			}
			if st, err := db.Run(req); err != nil || st != want {
				t.Errorf("%v sharing a TmpDir: %+v, %v; want %+v", req.Algorithm, st, err, want)
			}
		}()
	}
	wg.Wait()
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Fatalf("shared TmpDir after the joins: %v, holding %v", err, left)
	}
}
