package mstore

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
)

// A pointer join's plan key follows from the request and |R| alone
// (DB.planKey), and its layout from the key (DB.configure, which Run and
// Explain share). K = 0 is the floor, which stages nothing and reads no
// histogram (DB.floor); any other join is four steps: histogram →
// layout → scan → finish. The histogram is counted once per handle; each
// operator reads its destinations and the arena layout off it (this
// file), so a join's only pass over R is the scan (joinRun.staged).

// maxCellBits caps a row of the reference histogram at 2^12 cells: at
// D = 4 its per-cell counts take 4 × 4096 × 8 B = 128 KiB per handle.
const maxCellBits = 12

// errBadPointer marks a stored pointer that names no S object (see
// DB.sObject). The histogram pass caches it like a result, so every
// later staging join on the handle fails the same way; the scan,
// Lookup, Verify and Workload fail such a row too.
var errBadPointer = errors.New("dangling pointer")

// sObject returns the index of the S object a stored pointer names. It
// is the one pointer rule, which the histogram, the scan, Lookup, Verify
// and Workload all apply: the partition is below D, and the offset lies
// inside that partition's objects, on an object's first byte. A pointer
// that breaks it fails wrapping errBadPointer.
func (db *DB) sObject(ptr SPtr) (int, error) {
	if int(ptr.Part) >= len(db.S) {
		return 0, fmt.Errorf("points to partition %d of %d: %w", ptr.Part, len(db.S), errBadPointer)
	}
	s := db.S[ptr.Part]
	o, size := uint64(ptr.Off-s.data), uint64(s.size)
	if o >= uint64(s.Count())*size || o%size != 0 {
		return 0, fmt.Errorf("points to offset %d, not the start of one of S%d's %d-byte objects in [%d, %d): %w",
			ptr.Off, ptr.Part, size, s.data, uint64(s.data)+uint64(s.Count())*size, errBadPointer)
	}
	return int(o / size), nil
}

// errStale fails a staging join whose claim cursors find a destination
// holding more or fewer references than the handle's histogram counted:
// a pointer was rewritten, to another S object, after the count.
var errStale = errors.New("mstore: stored pointers changed since the handle counted its reference histogram (Relation.SetJoinAttr is build-time only; reopen the store)")

// cellGeo is the cell grid over one S partition's object area: cell c
// covers the byte offsets [base + c<<shift, base + (c+1)<<shift), and
// an offset starts an object only if o = off − base < span and the
// object size divides o: iff o·inv rotated right by tz is at most lim
// (Hacker's Delight §10-17), where inv inverts the size's odd part mod
// 2^64 and tz is its trailing zero bits, so the scan takes no division.
type cellGeo struct {
	base           Ptr
	span, inv, lim uint64
	tz, shift      uint
}

// newCellGeo lays at most 2^maxCellBits cells over rel's objects, each
// as narrow as that allows but no narrower than the largest power of
// two within one object, so a small partition gets at most two cells
// per object.
func newCellGeo(rel *Relation) cellGeo {
	size := uint64(rel.size)
	span := uint64(rel.Count()) * size
	shift := max(bits.Len64(span)-maxCellBits, bits.Len64(size)-1)
	tz := bits.TrailingZeros64(size)
	inv := size >> tz // correct in its low 3 bits; each Newton step doubles them
	for range 5 {
		inv *= 2 - (size>>tz)*inv
	}
	return cellGeo{base: rel.data, span: span, inv: inv, lim: ^uint64(0) / size, tz: uint(tz), shift: uint(shift)}
}

func (g cellGeo) cells() int { return int((g.span + 1<<g.shift - 1) >> g.shift) }

// refHist is a handle's reference histogram: how many R objects point
// into each S partition from each R partition, and into each cell of
// each S partition. It is a pure function of the stored pointers.
type refHist struct {
	d     int
	geo   []cellGeo // per S partition
	rows  []int     // |Ri,j| at i·d + j
	cells [][]int   // per S partition: references into each cell, from all of R

	// layouts caches each configuration read off the histogram with what
	// it stages (explain.go): joins and plans of one key share the first
	// one's layout. layoutBytes is what the cached layouts hold.
	layoutsMu   sync.Mutex
	layouts     map[planKey]*layout
	layoutBytes int
}

// histogram returns the handle's reference histogram, counting it on
// the first call. Concurrent first callers wait on the one count. A
// count stopped by its context or the pool caches nothing, so the next
// staging join counts again; a bad stored pointer is cached like a
// result.
func (db *DB) histogram(ctx context.Context, p *exec.Pool) (*refHist, error) {
	db.histMu.Lock()
	defer db.histMu.Unlock()
	if db.hist == nil && db.histErr == nil {
		db.histPasses++
		h, err := countHist(ctx, db, p, func(i int) (int, int) { return 0, db.R[i].Count() })
		if err != nil && !errors.Is(err, errBadPointer) {
			return nil, err
		}
		db.hist, db.histErr = h, err
	}
	return db.hist, db.histErr
}

// countHist counts the histogram of the R objects [lo, hi) = span(i) of
// each partition Ri in one morsel-parallel pass, each worker into private
// counters summed at the end, and rejects a pointer no join can follow.
// A handle's histogram spans all of R; the profile counts its samples'.
func countHist(ctx context.Context, db *DB, p *exec.Pool, span func(i int) (int, int)) (*refHist, error) {
	d := db.D
	geo := make([]cellGeo, d)
	for j, rel := range db.S {
		geo[j] = newCellGeo(rel)
	}
	counts := func() *refHist {
		c := &refHist{d: d, geo: geo, rows: make([]int, d*d), cells: make([][]int, d)}
		for j := range c.cells {
			c.cells[j] = make([]int, geo[j].cells())
		}
		return c
	}
	local := make([]*refHist, p.Workers())
	var tasks []exec.Task
	for i, ri := range db.R {
		from, to := span(i)
		tasks = rangeTasks(tasks, to-from, morselObjs, func(w, lo, hi int) error {
			lo, hi = lo+from, hi+from
			c := local[w]
			if c == nil {
				c = counts()
				local[w] = c
			}
			row := c.rows[i*d : i*d+d]
			for x := lo; x < hi; x++ {
				ptr := DecodeSPtr(ri.Object(x))
				if _, err := db.sObject(ptr); err != nil {
					return fmt.Errorf("mstore: R%d[%d] %w", i, x, err)
				}
				g := geo[ptr.Part]
				row[ptr.Part]++
				c.cells[ptr.Part][uint64(ptr.Off-g.base)>>g.shift]++
			}
			return nil
		})
	}
	if err := p.Run(ctx, tasks); err != nil {
		return nil, err
	}
	h := counts()
	for _, c := range local {
		if c == nil {
			continue
		}
		for x, n := range c.rows {
			h.rows[x] += n
		}
		for j, cnt := range c.cells {
			for x, n := range cnt {
				h.cells[j][x] += n
			}
		}
	}
	return h, nil
}

// The operators, read off the histogram: (k, maps, starts, finish).

// planKey names one staging configuration: the operator and the bucket
// count and resident fraction it derives for a request (DB.planKey).
// Requests with one key lay out the same arena.
type planKey struct {
	alg join.Algorithm
	k   int
	f0  float64
}

// configure reads the configuration a staging key (k > 0) names off the
// histogram. Sort-merge is Grace at its split count.
func (h *refHist) configure(key planKey) staging {
	if key.alg == join.NestedLoops {
		return h.nestedLoops(key.k)
	}
	return h.hybridHash(key.k, key.f0)
}

// rowMap places one R partition's references into one S partition: the
// references in cell c of its grid go to bucket[c], or are resident —
// joined during the scan, never staged — when bucket[c] < 0.
type rowMap struct {
	cellGeo
	bucket []int32
}

// nestedLoops (§5.1): own-partition references join during the scan,
// the rest sub-partition into RP<i,j> — row j, bucket i — laid out from
// the |Ri,j| totals and probed in staggered order. Each map is one cell
// (a shift of 64 maps every offset to cell 0). The scan fans out to at
// most k = min(D, 2^params.Bits) destinations a row: past that,
// neighbouring origins share one; up to it the mapping is the identity.
func (h *refHist) nestedLoops(k int) staging {
	d := h.d
	cfg := staging{k: k, maps: make([][]rowMap, d), starts: make([]int, d*k+1), finish: (*stagedRun).scanProbe}
	resident := []int32{-1}
	for i := range d {
		b := i * k / d
		staged := []int32{int32(b)}
		cfg.maps[i] = make([]rowMap, d)
		for j, g := range h.geo {
			g.shift = 64
			cfg.maps[i][j] = rowMap{cellGeo: g, bucket: staged}
			if j == i {
				cfg.maps[i][j].bucket = resident
				continue
			}
			cfg.starts[j*k+b+1] += h.rows[i*d+j]
		}
	}
	prefixSums(cfg.starts)
	return cfg
}

// floor is hybrid hash at f0 = 1, key.k = 0: every reference joins
// during the scan and nothing stages. Each S partition is one resident
// cell (a shift of 64, as in nestedLoops) over its extent, so the floor
// reads no histogram; its scan still applies the whole pointer rule.
func (db *DB) floor() staging {
	row := make([]rowMap, db.D)
	for j, rel := range db.S {
		row[j] = rowMap{cellGeo: newCellGeo(rel), bucket: []int32{-1}}
		row[j].shift = 64
	}
	return staging{maps: slices.Repeat([][]rowMap{row}, db.D), starts: []int{0}}
}

// grace (§5.3) is hybrid hash with nothing resident.
func (h *refHist) grace(k int) staging { return h.hybridHash(k, 0) }

// hybridHash: the references into a resident prefix of each S partition
// — f0 of its object area, rounded up to a cell boundary — join during
// the scan; the cells past it are cut into k address-ordered buckets,
// equi-depth (cutCells), each ordered into S windows and probed in
// place. k ≥ 1: f0 = 1 is the floor (DB.floor).
func (h *refHist) hybridHash(k int, f0 float64) staging {
	tables := make([][]int32, h.d)
	for j, cnt := range h.cells {
		g, t := h.geo[j], make([]int32, len(cnt))
		resident := min(int((uint64(f0*float64(g.span))+1<<g.shift-1)>>g.shift), len(cnt))
		for c := range resident {
			t[c] = -1
		}
		cutCells(t[resident:], cnt[resident:], k)
		tables[j] = t
	}
	cfg := h.byCell(k, tables)
	cfg.finish = (*stagedRun).orderProbe
	return cfg
}

// byCell configures an operator whose maps do not depend on the origin:
// tables[j][c] is the bucket of cell c of S partition j, or −1 when the
// cell is resident. The layout is the prefix sums of the staged cells'
// counts.
func (h *refHist) byCell(k int, tables [][]int32) staging {
	row := make([]rowMap, h.d)
	starts := make([]int, h.d*k+1)
	for j, t := range tables {
		row[j] = rowMap{cellGeo: h.geo[j], bucket: t}
		for c, b := range t {
			if b >= 0 {
				starts[j*k+int(b)+1] += h.cells[j][c]
			}
		}
	}
	prefixSums(starts)
	return staging{k: k, maps: slices.Repeat([][]rowMap{row}, h.d), starts: starts}
}

// cutCells assigns cells holding cnt[c] references each to k buckets in
// address order, equi-depth: a cell goes to the bucket its middle
// reference falls in at |row|/k references a bucket, never back to an
// earlier one. A cell holding more than |row|/k references is a bucket
// of its own, so a hot key shares its finish task with no neighbour.
func cutCells(bucket []int32, cnt []int, k int) {
	total := 0
	for _, n := range cnt {
		total += n
	}
	b, fill, acc, heavyPrev := 0, 0, 0, false
	for c, n := range cnt {
		heavy := n*k > total
		nb := b
		if total > 0 {
			nb = max(b, int(float64(2*acc+n)*float64(k)/float64(2*total)))
		}
		if fill > 0 && (heavy || heavyPrev) {
			nb = max(nb, b+1)
		}
		if nb = min(nb, k-1); nb != b {
			b, fill = nb, 0
		}
		bucket[c] = int32(b)
		fill, acc, heavyPrev = fill+n, acc+n, heavy
	}
}

// prefixSums turns per-destination counts, shifted one slot right, into
// the destinations' extent bounds.
func prefixSums(starts []int) {
	for x := 1; x < len(starts); x++ {
		starts[x] += starts[x-1]
	}
}
