package mstore

import (
	"encoding/binary"
	"path/filepath"
	"testing"
	"testing/quick"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/params"
)

func TestSegmentCreateOpenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	s, err := Create(path, 8192)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	copy(s.Bytes(p, 5), "hello")
	s.PutU64(p+8, 0xDEADBEEF)
	s.SetRoot(p)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// Exact positioning: the stored pointer is valid as-is.
	if got := string(s2.Bytes(s2.Root(), 5)); got != "hello" {
		t.Errorf("persisted data = %q", got)
	}
	if got := s2.U64(s2.Root() + 8); got != 0xDEADBEEF {
		t.Errorf("persisted u64 = %x", got)
	}
}

func TestSegmentOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(filepath.Join(dir, "missing")); err == nil {
		t.Error("open of missing file succeeded")
	}
	bad := filepath.Join(dir, "bad")
	s, err := Create(bad, 4096)
	if err != nil {
		t.Fatal(err)
	}
	s.PutU32(headerSize, 1) // valid segment...
	s.Close()
	// ...now corrupt the magic.
	raw, _ := Open(bad)
	if raw == nil {
		t.Fatal("reopen failed")
	}
	copy(raw.data[offMagic:], []byte{1, 2, 3, 4})
	raw.Close()
	if _, err := Open(bad); err == nil {
		t.Error("open of corrupted segment succeeded")
	}
}

func TestSegmentGrowPreservesData(t *testing.T) {
	s, err := Create(filepath.Join(t.TempDir(), "g"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p, _ := s.Alloc(16)
	s.PutU64(p, 42)
	if err := s.Grow(1 << 20); err != nil {
		t.Fatal(err)
	}
	if s.Size() < 1<<20 {
		t.Errorf("size %d after grow", s.Size())
	}
	if s.U64(p) != 42 {
		t.Error("data lost across grow")
	}
	// Alloc that exceeds current size grows implicitly.
	big, err := s.Alloc(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	s.Bytes(big, 2<<20)[0] = 1
}

// TestAllocIgnoresReservedWord: header word 32 held a free-list head in
// older builds, which left it nonzero after a free. Alloc must bump from
// the top whatever the word holds, leave it as it is, and keep the
// alignment and minimum size that place every object where it always was.
func TestAllocIgnoresReservedWord(t *testing.T) {
	s, err := Create(filepath.Join(t.TempDir(), "a"), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, _ := s.Alloc(100)
	b, _ := s.Alloc(100)
	if a != headerSize || b != a+104 {
		t.Fatalf("Alloc(100) twice = %d, %d; want %d, %d", a, b, headerSize, headerSize+104)
	}
	// What freeing a used to leave behind: a list head naming a, and a
	// node at a that fits the next request.
	s.PutU64(a, 0)
	s.PutU64(a+8, 104)
	for _, word := range []uint64{uint64(a), 1 << 40} {
		binary.LittleEndian.PutUint64(s.data[32:], word)
		top := s.allocTop()
		c, err := s.Alloc(80)
		if err != nil {
			t.Fatal(err)
		}
		if c != top {
			t.Errorf("word 32 = %d: Alloc(80) = %d, want the old top %d", word, c, top)
		}
		if got := binary.LittleEndian.Uint64(s.data[32:]); got != word {
			t.Errorf("Alloc rewrote word 32: %d, was %d", got, word)
		}
	}
	for _, c := range []struct{ n, size int64 }{{1, 16}, {16, 16}, {17, 24}, {24, 24}} {
		top := s.allocTop()
		p, _ := s.Alloc(c.n)
		if p != top || s.allocTop() != top+Ptr(c.size) {
			t.Errorf("Alloc(%d) took [%d,%d), want [%d,%d)", c.n, p, s.allocTop(), top, top+Ptr(c.size))
		}
	}
}

func TestAllocErrors(t *testing.T) {
	s, _ := Create(filepath.Join(t.TempDir(), "e"), 4096)
	defer s.Close()
	if _, err := s.Alloc(0); err == nil {
		t.Error("Alloc(0) succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access should panic")
		}
	}()
	s.Bytes(Ptr(s.Size()), 8)
}

// Property: alloc sequences never hand out overlapping blocks.
func TestQuickAllocatorNoOverlap(t *testing.T) {
	f := func(ops []uint8) bool {
		s, err := Create(filepath.Join(t.TempDir(), "q"), 1<<16)
		if err != nil {
			return false
		}
		defer s.Close()
		type block struct {
			p Ptr
			n int64
		}
		var live []block
		for _, op := range ops {
			n := int64(op)%200 + 1
			p, err := s.Alloc(n)
			if err != nil {
				return false
			}
			for _, b := range live {
				lo, hi := int64(p), int64(p)+((n+7)&^7)
				blo, bhi := int64(b.p), int64(b.p)+((b.n+7)&^7)
				if lo < bhi && blo < hi {
					return false
				}
			}
			live = append(live, block{p, n})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRelationAppendAndPersist(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rel")
	s, _ := Create(path, 1<<16)
	rel, err := CreateRelation(s, 32, 10)
	if err != nil {
		t.Fatal(err)
	}
	obj := make([]byte, 32)
	for i := 0; i < 3; i++ {
		EncodeSPtr(obj, SPtr{Part: uint32(i), Off: Ptr(100 + i)})
		binary.LittleEndian.PutUint64(obj[ridOffset:], uint64(i*7))
		if _, err := rel.Append(obj); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2, _ := Open(path)
	defer s2.Close()
	rel2, err := OpenRelation(s2)
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Count() != 3 || rel2.ObjSize() != 32 {
		t.Fatalf("count=%d objSize=%d", rel2.Count(), rel2.ObjSize())
	}
	for i := 0; i < 3; i++ {
		ptr := rel2.JoinAttr(i)
		if ptr.Part != uint32(i) || ptr.Off != Ptr(100+i) {
			t.Errorf("object %d pointer %+v", i, ptr)
		}
	}
	if rel2.IndexOf(rel2.PtrAt(2)) != 2 {
		t.Error("IndexOf broken")
	}
}

func TestRelationErrors(t *testing.T) {
	s, _ := Create(filepath.Join(t.TempDir(), "r"), 1<<16)
	defer s.Close()
	if _, err := CreateRelation(s, 4, 10); err == nil {
		t.Error("object smaller than pointer accepted")
	}
	rel, _ := CreateRelation(s, 32, 1)
	if _, err := rel.Append(make([]byte, 16)); err == nil {
		t.Error("wrong-size append accepted")
	}
	rel.Append(make([]byte, 32))
	if _, err := rel.Append(make([]byte, 32)); err == nil {
		t.Error("append beyond capacity accepted")
	}
}

func makeDB(t testing.TB, nr int) *DB {
	t.Helper()
	db, err := CreateDB(filepath.Join(t.TempDir(), "db"), 4, nr, nr, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// newPool gives a test a pool of w workers that closes when it ends.
func newPool(t testing.TB, w int) *exec.Pool {
	p := exec.NewPool(w)
	t.Cleanup(p.Close)
	return p
}

func TestDBCreateOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := CreateDB(dir, 4, 1000, 1000, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := db.ExpectedStats()
	db.Close()

	db2, err := OpenDB(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got := db2.ExpectedStats()
	if got != want {
		t.Errorf("reopened stats %+v != %+v", got, want)
	}
}

// TestOpenDBRefusesShortD: a store opened with fewer partitions than it
// holds is refused, not half-mapped; opened with its own D it is whole.
func TestOpenDBRefusesShortD(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := CreateDB(dir, 4, 4000, 4000, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if short, err := OpenDB(dir, 2); err == nil {
		short.Close()
		t.Fatal("a D = 4 store opened with d = 2")
	}
	whole, err := OpenDB(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	if n := whole.CountR(); n != 4000 {
		t.Fatalf("CountR = %d, want 4000", n)
	}
}

func TestDBCreateValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := CreateDB(dir, 4, 1000, 1000, 8, 1); err == nil {
		t.Error("tiny object size accepted")
	}
	if _, err := CreateDB(dir, 8, 4, 4, 64, 1); err == nil {
		t.Error("fewer objects than partitions accepted")
	}
}

func TestRealJoinsAgree(t *testing.T) {
	db := makeDB(t, 4000)
	want := db.ExpectedStats()
	tmp := t.TempDir()

	nl, err := db.Run(JoinRequest{Algorithm: join.NestedLoops, TmpDir: filepath.Join(tmp, "nl")})
	if err != nil {
		t.Fatal(err)
	}
	sm, err := db.Run(JoinRequest{Algorithm: join.SortMerge, TmpDir: filepath.Join(tmp, "sm")})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := db.Run(JoinRequest{Algorithm: join.Grace, K: 8, TmpDir: filepath.Join(tmp, "gr")})
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]JoinStats{"nested-loops": nl, "sort-merge": sm, "grace": gr} {
		if st != want {
			t.Errorf("%s: %+v, want %+v", name, st, want)
		}
	}
}

func TestGraceBucketCounts(t *testing.T) {
	db := makeDB(t, 1000)
	want := db.ExpectedStats()
	for _, k := range []int{1, 3, 16} {
		st, err := db.Run(JoinRequest{Algorithm: join.Grace, K: k, TmpDir: filepath.Join(t.TempDir(), "g")})
		if err != nil {
			t.Fatal(err)
		}
		if st != want {
			t.Errorf("k=%d: wrong join", k)
		}
	}
}

// Property: all real joins agree with ground truth for arbitrary sizes
// and seeds.
func TestQuickRealJoinEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("io heavy")
	}
	f := func(seed int64, rawN uint16) bool {
		nr := int(rawN)%1500 + 16
		db, err := CreateDB(filepath.Join(t.TempDir(), "db"), 4, nr, nr, 64, seed)
		if err != nil {
			return false
		}
		defer db.Close()
		want := db.ExpectedStats()
		tmp := t.TempDir()
		nl, err1 := db.Run(JoinRequest{Algorithm: join.NestedLoops, TmpDir: filepath.Join(tmp, "nl")})
		sm, err2 := db.Run(JoinRequest{Algorithm: join.SortMerge, TmpDir: filepath.Join(tmp, "sm")})
		gr, err3 := db.Run(JoinRequest{Algorithm: join.Grace, K: 5, TmpDir: filepath.Join(tmp, "gr")})
		return err1 == nil && err2 == nil && err3 == nil &&
			nl == want && sm == want && gr == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestHybridHashRealStore(t *testing.T) {
	db := makeDB(t, 3000)
	want := db.ExpectedStats()
	// A request derives the resident fraction from MRproc; the fixed
	// fractions go to the staging configuration directly.
	h := histOf(t, db)
	for _, frac := range []float64{0, 0.3, 0.7, 1.0} {
		st, err := runStaged(t, db, h.hybridHash(6, frac), params.Bits, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st != want {
			t.Errorf("residentFrac=%g: wrong join result", frac)
		}
	}
}

func TestAuxRootPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "aux")
	s, err := Create(path, 8192)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRoot(100)
	s.SetAuxRoot(200)
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Root() != 100 || s2.AuxRoot() != 200 {
		t.Errorf("roots = %d/%d", s2.Root(), s2.AuxRoot())
	}
}

func TestDBVerify(t *testing.T) {
	db := makeDB(t, 1000)
	if err := db.Verify(); err != nil {
		t.Fatal(err)
	}
	// Corrupt one pointer: partition out of range.
	obj := db.R[0].Object(0)
	EncodeSPtr(obj, SPtr{Part: 99, Off: 64})
	if err := db.Verify(); err == nil {
		t.Error("corrupted partition not detected")
	}
	// Misaligned offset.
	EncodeSPtr(obj, SPtr{Part: 1, Off: db.S[1].PtrAt(0) + 1})
	if err := db.Verify(); err == nil {
		t.Error("misaligned pointer not detected")
	}
	// Restore and duplicate an id.
	EncodeSPtr(obj, SPtr{Part: 0, Off: db.S[0].PtrAt(0)})
	if err := db.Verify(); err != nil {
		t.Fatalf("restore failed: %v", err)
	}
	copy(db.R[0].Object(1)[ridOffset:], db.R[0].Object(0)[ridOffset:ridOffset+8])
	if err := db.Verify(); err == nil {
		t.Error("duplicate id not detected")
	}
}

func TestRelationSurvivesSegmentGrow(t *testing.T) {
	// Virtual pointers are offsets: growing (remapping) the segment must
	// not invalidate a relation built before the grow.
	s, err := Create(filepath.Join(t.TempDir(), "g"), 8192)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rel, err := CreateRelation(s, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	obj := make([]byte, 32)
	EncodeSPtr(obj, SPtr{Part: 3, Off: 777})
	rel.Append(obj)
	if err := s.Grow(1 << 21); err != nil {
		t.Fatal(err)
	}
	if got := rel.JoinAttr(0); got.Part != 3 || got.Off != 777 {
		t.Errorf("pointer after grow: %+v", got)
	}
	// And a relation reopened from the root also works post-grow.
	rel2, err := OpenRelation(s)
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Count() != 1 {
		t.Errorf("count = %d", rel2.Count())
	}
}
