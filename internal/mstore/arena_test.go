package mstore

import (
	"cmp"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"mmjoin/internal/join"
)

func cmpRef(a, b ref) int {
	return cmp.Or(cmp.Compare(a.off, b.off), cmp.Compare(a.rid, b.rid))
}

// TestArenaPartitionInPlace: the one re-partitioning primitive under
// refine and orderProbe moves every reference into its class's range,
// losing and duplicating none, for any class sizes — empty ones
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
		if !partition(refs, bounds, func(e ref) int { return int(e.off) }) {
			t.Fatalf("trial %d: exact bounds reported stale", trial)
		}
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
	// Bounds that give class 0 one slot for its two references — a stale
	// layout — are reported, and nothing moves out of range.
	refs := []ref{{off: 1}, {off: 0}, {off: 0}}
	if partition(refs, []int{0, 1, 3}, func(e ref) int { return int(e.off) }) {
		t.Fatal("undercounted bounds were not reported")
	}
}

// TestArenaExtentsTileExactly is the layout property: for random
// destination counts (random k, random cell-to-bucket tables drawn from
// a random many-to-one bucket map that leaves destinations empty, and a
// random resident-cell prefix per S partition) at workers {1, 2, 4, 8}
// and fan-outs that refine zero to three times, the extents handed to
// finish tile the arena exactly — no gap, no overlap, arena bytes =
// staged references × 16 + header — and each destination's extent holds
// exactly the multiset of references the scan should have staged there.
// Under -race it is also the proof that concurrent morsels claiming
// runs of one extent never share a slot.
func TestArenaExtentsTileExactly(t *testing.T) {
	db := makeDB(t, 3*morselObjs+123)
	h := histOf(t, db)
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 24; trial++ {
		workers := []int{1, 2, 4, 8}[trial%4]
		k := 1 + rng.Intn(60)
		fanBits := []int{2, 4, 8}[rng.Intn(3)]
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
		r.fanBits = fanBits
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
		arenaRefs, arenaBytes := len(r.tmp.refs), r.tmp.seg.Size()
		done()
		if err != nil {
			t.Fatal(err)
		}
		if arenaRefs != staged || arenaBytes != headerSize+int64(staged)*refBytes {
			t.Fatalf("trial %d: arena holds %d references in %d bytes, want %d references × 16 + header",
				trial, arenaRefs, arenaBytes, staged)
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
				t.Fatalf("trial %d (k=%d bits=%d w=%d): destination %d read back %d references, staged %d, or their contents differ",
					trial, k, fanBits, workers, e.dst, len(e.refs), len(want[e.dst]))
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

// TestArenaNameCollision: two live arenas in one directory are two
// distinct arena-*.seg files, and opening the second neither truncates
// nor removes the first: its references stay readable.
func TestArenaNameCollision(t *testing.T) {
	dir := t.TempDir()
	first := tempArena{dir: dir, tel: &JoinTelemetry{}}
	if err := first.open(1000); err != nil {
		t.Fatal(err)
	}
	defer first.close()
	for x := range first.refs {
		first.refs[x] = ref{off: Ptr(x), rid: uint64(3 * x)}
	}
	second := tempArena{dir: dir, tel: &JoinTelemetry{}}
	if err := second.open(10); err != nil {
		t.Fatal(err)
	}
	defer second.close()
	files, err := filepath.Glob(filepath.Join(dir, "arena-*.seg"))
	if err != nil || len(files) != 2 || first.seg.path == second.seg.path {
		t.Fatalf("two live arenas are the files %v (%v): want two distinct ones", files, err)
	}
	if info, err := os.Stat(first.seg.path); err != nil || info.Size() != first.seg.Size() {
		t.Fatalf("the first arena's file changed: %v, %v", info, err)
	}
	for x, e := range first.refs {
		if e != (ref{off: Ptr(x), rid: uint64(3 * x)}) {
			t.Fatalf("the first arena's reference %d reads %+v", x, e)
		}
	}
}

// TestArenaOpenFailureLeavesNothing: an arena whose file cannot be
// sized (2^48 bytes is past any file size ext4 or a mapping allows)
// fails to open and leaves its directory empty.
func TestArenaOpenFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	a := tempArena{dir: dir, tel: &JoinTelemetry{}}
	if err := a.open(1 << 44); err == nil {
		a.close()
		t.Fatal("an arena of 2^44 references opened")
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("a failed open left %v (%v)", left, err)
	}
	if a.seg != nil || a.tel.TempFiles.Load() != 0 {
		t.Fatal("a failed open counted or kept an arena")
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
