package mstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
)

// indexedDB builds indexes over db (ephemeral pool) and fails the test
// on any error.
func indexedDB(t *testing.T, db *DB) *DB {
	t.Helper()
	if err := db.BuildIndexes(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if !db.HasIndexes() {
		t.Fatal("HasIndexes false after BuildIndexes")
	}
	return db
}

func TestBuildIndexesVerify(t *testing.T) {
	db := indexedDB(t, makeDB(t, 3000))
	if err := db.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < db.D; j++ {
		if err := db.sidx[j].Verify(); err != nil {
			t.Fatalf("S%d: %v", j, err)
		}
		if got, want := db.sidx[j].Len(), db.S[j].Count(); got != want {
			t.Fatalf("S%d index Len = %d, want %d", j, got, want)
		}
	}
	for i := 0; i < db.D; i++ {
		if err := db.ridx[i].Verify(); err != nil {
			t.Fatalf("R%d: %v", i, err)
		}
		if got, want := db.ridx[i].Len(), db.R[i].Count(); got != want {
			t.Fatalf("R%d index Len = %d, want %d", i, got, want)
		}
	}
	// Idempotent.
	if err := db.BuildIndexes(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

// TestIndexJoinGrid is the tentpole invariant: both index operators
// reproduce the exact Pairs/Signature of the pointer ground truth for
// uniform and Zipf-skewed stores at every worker count and under any
// MRproc — they stage nothing, so the grant changes nothing — the same
// bit-identical gate the kernel rewrites are held to.
func TestIndexJoinGrid(t *testing.T) {
	dbs := map[string]*DB{
		"uniform": indexedDB(t, makeDB(t, 4000)),
		"zipf":    indexedDB(t, zipfDB(t, 4000)),
	}
	workerGrid := []int{1, 4, runtime.GOMAXPROCS(0)}
	for name, db := range dbs {
		want := db.ExpectedStats()
		for _, alg := range []join.Algorithm{join.IndexNL, join.IndexMerge} {
			for _, w := range workerGrid {
				p := newPool(t, w)
				for _, mrproc := range []int64{0, 1, 1 << 20} {
					got, err := db.Run(JoinRequest{Algorithm: alg, Pool: p, MRproc: mrproc})
					if err != nil {
						t.Fatalf("%s/%v/w=%d/mrproc=%d: %v", name, alg, w, mrproc, err)
					}
					if got != want {
						t.Errorf("%s/%v/w=%d/mrproc=%d: stats %+v, want %+v", name, alg, w, mrproc, got, want)
					}
				}
			}
		}
	}
}

// TestIndexUnindexedRejected: the request layer refuses index plans on a
// store without attached indexes.
func TestIndexUnindexedRejected(t *testing.T) {
	db := makeDB(t, 200)
	for _, alg := range []join.Algorithm{join.IndexNL, join.IndexMerge} {
		if _, err := db.Run(JoinRequest{Algorithm: alg}); err == nil {
			t.Errorf("%v ran without indexes", alg)
		}
	}
}

// TestIndexPersistenceReopen is the paper's no-pointer-fixup claim for
// indexes: build, close, reopen — OpenDB attaches the trees by exact
// positioning and the index joins reproduce the identical Signature.
func TestIndexPersistenceReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := CreateDB(dir, 4, 3000, 3000, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndexes(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	want := db.ExpectedStats()
	db.Close()

	db2, err := OpenDB(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.HasIndexes() {
		t.Fatal("reopen did not attach indexes")
	}
	if err := db2.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []join.Algorithm{join.IndexNL, join.IndexMerge} {
		got, err := db2.Run(JoinRequest{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v after reopen: %v", alg, err)
		}
		if got != want {
			t.Errorf("%v after reopen: stats %+v, want %+v", alg, got, want)
		}
	}
}

// TestIndexReopenUnindexedStore: a store that never built indexes must
// reopen unindexed (AuxRoot zero everywhere), not crash or misattach.
func TestIndexReopenUnindexedStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := CreateDB(dir, 2, 500, 500, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	db2, err := OpenDB(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.HasIndexes() {
		t.Fatal("unindexed store reopened with indexes")
	}
}

// TestBulkLoadMatchesIncremental: a bulk load over a duplicate-heavy
// item set must agree with a shadow map on Len, Verify, the per-key
// value multisets and the ordered key sequence — at several worker
// counts, since the bulk layout must be worker-count independent.
func TestBulkLoadMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	zipf := rand.NewZipf(rng, 1.2, 3, 300)
	const n = 5000
	items := make([]KV, n)
	ref := map[uint64]map[Ptr]int{}
	var keys []uint64 // the scan's key sequence, one key per value
	for x := range items {
		items[x] = KV{Key: zipf.Uint64(), Val: Ptr(8 * (x + 8))}
		if ref[items[x].Key] == nil {
			ref[items[x].Key] = map[Ptr]int{}
		}
		ref[items[x].Key][items[x].Val]++
		keys = append(keys, items[x].Key)
	}
	slices.Sort(keys)

	var heads []Ptr
	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		seg, err := Create(filepath.Join(t.TempDir(), fmt.Sprintf("blk%d", workers)), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		p := exec.NewPool(workers)
		in := append([]KV(nil), items...)
		tree, err := BulkLoadBTree(context.Background(), p, seg, indexNodeBytes, in)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		heads = append(heads, tree.Head())
		if tree.Len() != n {
			t.Fatalf("w=%d: Len %d, want %d", workers, tree.Len(), n)
		}
		if err := tree.Verify(); err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		for k, want := range ref {
			got := map[Ptr]int{}
			tree.Postings(k, func(v Ptr) bool { got[v]++; return true })
			if len(got) != len(want) {
				t.Fatalf("w=%d key %d: %d distinct values, want %d", workers, k, len(got), len(want))
			}
			for v, c := range want {
				if got[v] != c {
					t.Fatalf("w=%d key %d val %d: count %d, want %d", workers, k, v, got[v], c)
				}
			}
		}
		// The ordered scan yields every key once per value, ascending.
		bk := scanTree(tree, 0, 1<<62)
		if len(bk) != len(keys) {
			t.Fatalf("w=%d: scan length %d, want %d", workers, len(bk), len(keys))
		}
		for x := range bk {
			if bk[x].Key != keys[x] {
				t.Fatalf("w=%d: scan diverges at %d: %d, want %d", workers, x, bk[x].Key, keys[x])
			}
		}
	}
	// The layout is deterministic: every worker count produced the same
	// head (same Alloc sequence ⇒ same offsets in fresh segments).
	for _, h := range heads[1:] {
		if h != heads[0] {
			t.Errorf("bulk-load heads differ across worker counts: %v", heads)
		}
	}
}

// TestBulkLoadEmptyAndSmall: edge shapes — empty input, one item, all
// duplicates of one key.
func TestBulkLoadEmptyAndSmall(t *testing.T) {
	seg, err := Create(filepath.Join(t.TempDir(), "blk"), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	empty, err := BulkLoadBTree(context.Background(), nil, seg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Fatalf("empty Len = %d", empty.Len())
	}
	if err := empty.Verify(); err != nil {
		t.Fatal(err)
	}
	one, err := BulkLoadBTree(context.Background(), nil, seg, 0, []KV{{Key: 9, Val: 72}})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := one.Get(9); !ok || v != 72 {
		t.Fatalf("Get(9) = %d,%v", v, ok)
	}
	dup := make([]KV, 100)
	for x := range dup {
		dup[x] = KV{Key: 5, Val: Ptr(8 * (x + 8))}
	}
	all, err := BulkLoadBTree(context.Background(), nil, seg, 0, dup)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != 100 {
		t.Fatalf("Len = %d", all.Len())
	}
	if err := all.Verify(); err != nil {
		t.Fatal(err)
	}
	n := 0
	all.Postings(5, func(Ptr) bool { n++; return true })
	if n != 100 {
		t.Fatalf("Postings visited %d", n)
	}
}

// TestIndexMergeMatchesOtherKernels runs all six operators over one
// indexed store and asserts a single identical JoinStats — index paths
// and table paths are interchangeable plans.
func TestIndexJoinMatchesOtherKernels(t *testing.T) {
	db := indexedDB(t, makeDB(t, 3000))
	want := db.ExpectedStats()
	for _, alg := range []join.Algorithm{
		join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash,
		join.IndexNL, join.IndexMerge,
	} {
		got, err := db.Run(JoinRequest{Algorithm: alg, Pool: newPool(t, 2)})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got != want {
			t.Errorf("%v: stats %+v, want %+v", alg, got, want)
		}
	}
}

// TestRetriedIndexBuildKeepsCompleteTrees: a store whose build persisted
// every tree but R2's opens unindexed, and the next build keeps each
// complete tree where it is and builds R2's alone.
func TestRetriedIndexBuildKeepsCompleteTrees(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := CreateDB(dir, 4, 2000, 2000, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndexes(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	db.R[2].Segment().SetAuxRoot(0)
	rels := func(db *DB) []*Relation { return append(slices.Clone(db.R), db.S...) }
	var before []Ptr
	for _, rel := range rels(db) {
		before = append(before, rel.Segment().AuxRoot())
	}
	db.Close()
	if db, err = OpenDB(dir, 4); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.HasIndexes() {
		t.Fatal("a store missing R2's tree opened indexed")
	}
	if err := db.BuildIndexes(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	for n, rel := range rels(db) {
		if aux := rel.Segment().AuxRoot(); n == 2 && aux == 0 || n != 2 && aux != before[n] {
			t.Errorf("%s: aux root %d, was %d", filepath.Base(rel.Segment().Path()), aux, before[n])
		}
	}
	if err := db.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedIndexBuildLeavesNoTrees: an index build checks every aux
// root and resolves every R key before it allocates the first tree, so a
// dangling pointer, or R3's aux slot taken by a foreign pointer, fails
// it with the store's segment files byte-for-byte as they were and
// every aux root as it was.
func TestFailedIndexBuildLeavesNoTrees(t *testing.T) {
	for _, c := range []struct {
		name  string
		spoil func(db *DB)
		is    error // the error wrapped, when there is a sentinel
		want  string
	}{
		{"dangling pointer", func(db *DB) {
			db.R[0].SetJoinAttr(0, SPtr{Part: 7, Off: db.S[0].PtrAt(0)})
		}, errBadPointer, "R0[0]"},
		{"R3's aux root taken", func(db *DB) {
			db.R[3].Segment().SetAuxRoot(db.R[3].PtrAt(5))
		}, nil, "index R3: aux root"},
	} {
		dir := filepath.Join(t.TempDir(), "db")
		db, err := CreateDB(dir, 4, 2000, 2000, 32, 7)
		if err != nil {
			t.Fatal(err)
		}
		c.spoil(db)
		rels := append(slices.Clone(db.R), db.S...)
		auxes := func() (out []Ptr) {
			for _, rel := range rels {
				out = append(out, rel.Segment().AuxRoot())
			}
			return out
		}
		files := func() map[string][]byte {
			paths, err := filepath.Glob(filepath.Join(dir, "*.seg"))
			if err != nil || len(paths) != 2*db.D {
				t.Fatalf("segment files %v, %v", paths, err)
			}
			out := map[string][]byte{}
			for _, p := range paths {
				if out[p], err = os.ReadFile(p); err != nil {
					t.Fatal(err)
				}
			}
			return out
		}
		before, auxBefore := files(), auxes()
		err = db.BuildIndexes(context.Background(), nil)
		if err == nil || c.is != nil && !errors.Is(err, c.is) || !strings.Contains(err.Error(), c.want) || db.HasIndexes() {
			t.Errorf("%s: index build: %v (indexed %v), want an error naming %q", c.name, err, db.HasIndexes(), c.want)
		}
		for p, b := range files() {
			if !bytes.Equal(b, before[p]) {
				t.Errorf("%s: %s changed (%d bytes, was %d)", c.name, filepath.Base(p), len(b), len(before[p]))
			}
		}
		if got := auxes(); !slices.Equal(got, auxBefore) {
			t.Errorf("%s: aux roots %v, were %v", c.name, got, auxBefore)
		}
		db.Close()
	}
}
