package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"strings"

	"mmjoin/internal/join"
	"mmjoin/internal/mstore"
)

// Every workload shares one shape: D partitions of 128-byte objects,
// the paper's r = s.
const (
	partitions = 4
	objSize    = 128

	lookupBlocks = 128 // library lookup blocks per round
	blockLookups = 256 // lookups per block; a lookup sample is block time / 256

	joinShare = 0.10 // served stream: one operation in ten is a join
)

// spec sizes one workload. The seed never changes a spec; it drives the
// pointers, the key sequences and the operator order.
type spec struct {
	name string
	why  string

	nr, ns     int
	ptrZipf    float64 // >0: the benchmark rewrites R's pointers Zipf(ptrZipf); 0 keeps CreateDB's uniform ones
	indexed    bool    // unindexed stores plan and run the four staging operators only
	mrproc     int64   // library workloads: per-partition grant, bytes
	lookupZipf float64

	served bool
	shards int // >0: the source store is split and served through the router
}

var specs = []spec{
	{
		name: "lib_fit", why: "library calls, tables fit the grant: mstore kernels and exec do nearly all the work, so a kernel or scheduling gain shows undiluted",
		nr: 200000, ns: 200000, indexed: true, mrproc: 1 << 20, lookupZipf: 1.2,
	},
	{
		name: "lib_spill", why: "opposite regime: Zipf pointers, no indexes, 16 KiB grant, ~1,500 temp segments a join, a gain that costs spilling shows; 2.9 s rounds: run_seconds 20 measures 9 rounds (~26 s, ~37 s wall, n=9 per op)",
		nr: 160000, ns: 40000, ptrZipf: 1.1, mrproc: 16 << 10, lookupZipf: 1.2,
	},
	{
		name: "serve_single", why: "nproc keep-alive HTTP clients, 90% lookups and 10% joins against one store: HTTP, planning, the admission queue and lookups competing with join morsels exist only here",
		nr: 100000, ns: 100000, indexed: true, lookupZipf: 1.2, served: true,
	},
	{
		name: "serve_shard", why: "the serve_single stream through shard.Split and the router over 3 shards: the two rows differ only by scatter, per-shard planning, fold and ring-routed lookups",
		nr: 100000, ns: 100000, indexed: true, lookupZipf: 1.2, served: true, shards: 3,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// smoke shrinks a spec to about 2,000 objects for the tier-1 test,
// keeping the |R|:|S| ratio and the regime (the spill grant shrinks
// with the store so buckets still outnumber the grant).
func (s spec) smoke() spec {
	scale := (s.nr + s.ns) / 2000
	s.nr /= scale
	s.ns /= scale
	if s.ptrZipf > 0 {
		s.mrproc = 4096
	}
	return s
}

// ops are the operators a caller of this store may name.
func (s spec) ops() []join.Algorithm {
	if s.indexed {
		return explicitOps
	}
	return explicitOps[:4]
}

// applies reports whether the workload has the layer a per-layer metric
// measures. Where it does not, the metric is reported as not applicable
// rather than as a measured zero.
func (s spec) applies(metric string) bool {
	for _, perOp := range []string{"mstore.run_ms_p50.", "exec.speedup."} {
		if op, ok := strings.CutPrefix(metric, perOp); ok && !slices.Contains(opNames(s.ops()), op) {
			return false // an unindexed store cannot run the index operators
		}
	}
	switch {
	case strings.HasPrefix(metric, "exec.speedup."):
		return !s.served // the one-worker passes go through JoinRequest.Pool, which a served join does not expose
	case strings.HasPrefix(metric, "service."):
		return s.served
	case strings.HasPrefix(metric, "shard."):
		return s.shards > 0
	case strings.HasPrefix(metric, "mstore.lookup_ns_"), metric == "mstore.open_ms":
		return s.shards == 0 // behind the router these are shard.lookup_ns_*, shard.open_ms
	case metric == "mstore.index_build_s":
		return s.indexed
	case metric == "model.calibrate_ms":
		return !s.served // the service calibrates inside service.New, the router's planner inside shard.open_ms
	}
	return true
}

// lookupRows is the number of rows per R partition the lookup streams
// address. A sharded store validates (part, index) against whichever
// shard the ring picks, so both served workloads stay inside the
// smallest shard partition and share one stream.
func (s spec) lookupRows() int {
	rows := s.nr / partitions
	if s.served {
		rows /= 3
	}
	return rows
}

// rewritePointers overwrites every R object's join attribute with a
// Zipf(s)-distributed S object. Rank k is S[k mod D][k / D] for every
// seed, so the seed changes which R object points where but not how hot
// each S object is.
func rewritePointers(db *mstore.DB, seed int64, s float64) {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(db.CountS()-1))
	for _, rel := range db.R {
		for x := range rel.Count() {
			k := int(z.Uint64())
			sj := db.S[k%db.D]
			rel.SetJoinAttr(x, mstore.SPtr{Part: uint32(k % db.D), Off: sj.PtrAt(k / db.D)})
		}
	}
}

// key names one R object.
type key struct{ part, index int }

// keyGen draws Zipf-ranked lookup keys. Rank k lands in partition
// k mod D at a row scattered over the partition, so hot keys do not
// share pages. With callers > 1 a caller draws only rows congruent to
// its number: a lookup's key then names the one caller that can have it
// in flight, which is how the traced store finds the operation a lookup
// belongs to (Store.Lookup carries no context).
type keyGen struct {
	zipf            *rand.Zipf
	rows, mult, off int
	callers, caller int
}

func newKeyGen(rng *rand.Rand, s float64, rows, callers, caller int) *keyGen {
	slots := rows / callers
	mult := 7919
	for gcd(mult, slots) != 1 {
		mult++
	}
	return &keyGen{
		zipf: rand.NewZipf(rng, s, 1, uint64(partitions*slots-1)),
		rows: slots, mult: mult, off: rng.Intn(slots),
		callers: callers, caller: caller,
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (g *keyGen) next() key {
	k := int(g.zipf.Uint64())
	slot := (k/partitions*g.mult + g.off) % g.rows
	return key{part: k % partitions, index: slot*g.callers + g.caller}
}

// roundPlan is one library round: the explicit operators in a seeded
// order (so no operator always inherits the same predecessor's warm
// pages) and the round's lookup keys.
type roundPlan struct {
	ops  []join.Algorithm
	keys []key
}

func (s spec) round(seed int64, r int) roundPlan {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(r)))
	plan := roundPlan{ops: append([]join.Algorithm(nil), s.ops()...)}
	rng.Shuffle(len(plan.ops), func(a, b int) { plan.ops[a], plan.ops[b] = plan.ops[b], plan.ops[a] })
	g := newKeyGen(rng, s.lookupZipf, s.lookupRows(), 1, 0)
	plan.keys = make([]key, lookupBlocks*blockLookups)
	for i := range plan.keys {
		plan.keys[i] = g.next()
	}
	return plan
}

// servedOp is one operation of a served client's stream.
type servedOp struct {
	join bool
	alg  string // "auto" or an operator's name
	key  key
}

// opStream is one client's seeded stream: 90% lookups, 10% joins that
// alternate auto with the explicit operators in rotation. Clients start
// the rotation at different operators; rep tells the instances of one
// run apart (each continues with fresh operations), -1 is the warm-up.
type opStream struct {
	rng   *rand.Rand
	keys  *keyGen
	ops   []join.Algorithm
	joins int
	rot   int
}

func (s spec) stream(seed int64, rep, callers, caller int) *opStream {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(rep)*1009 + int64(caller)))
	return &opStream{
		rng:  rng,
		keys: newKeyGen(rng, s.lookupZipf, s.lookupRows(), callers, caller),
		ops:  s.ops(),
		rot:  rng.Intn(len(s.ops())) + caller*len(s.ops())/callers,
	}
}

func (st *opStream) next() servedOp {
	if st.rng.Float64() >= joinShare {
		return servedOp{key: st.keys.next()}
	}
	j := st.joins
	st.joins++
	if j%2 == 0 {
		return servedOp{join: true, alg: "auto"}
	}
	return servedOp{join: true, alg: st.ops[(st.rot+j/2)%len(st.ops)].String()}
}

// Schedule-hash horizon: a run is bounded by time, not by a count, so
// the hash covers a fixed prefix of what the seed generates.
const (
	hashRounds    = 8
	hashStreamOps = 2048
)

// scheduleHash identifies a run's inputs: the stored pointers (through
// the expected join result), and the generated operations.
func (s spec) scheduleHash(seed int64, callers int, exp mstore.JoinStats) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s nr=%d ns=%d callers=%d pairs=%d sig=%016x\n", s.name, s.nr, s.ns, callers, exp.Pairs, exp.Signature)
	if !s.served {
		for r := range hashRounds {
			plan := s.round(seed, r)
			for _, op := range plan.ops {
				hashInts(h, int(op))
			}
			for _, k := range plan.keys {
				hashInts(h, k.part, k.index)
			}
		}
	} else {
		for c := range callers {
			st := s.stream(seed, 0, callers, c)
			for range hashStreamOps {
				op := st.next()
				fmt.Fprintf(h, "%v %s ", op.join, op.alg)
				hashInts(h, op.key.part, op.key.index)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func hashInts(h hash.Hash, vs ...int) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
}

// answer is what a lookup of one R object must return, read from the
// store's files before any timing.
type answer struct {
	rid    uint64
	sWord  uint64
	sPart  uint32
	sIndex int
}

// answers is indexed [part][index].
type answers [][]answer

// readAnswers reads the table from the mapped relations themselves —
// the R object's stored pointer and id, the S object's identity word —
// not through the Lookup call it will check.
func readAnswers(db *mstore.DB) answers {
	const ridOffset = mstore.MinObjSize - 8 // the R id follows the pointer
	table := make(answers, len(db.R))
	for i, rel := range db.R {
		table[i] = make([]answer, rel.Count())
		for x := range table[i] {
			obj := rel.Object(x)
			ptr := mstore.DecodeSPtr(obj)
			s := db.S[ptr.Part]
			table[i][x] = answer{
				rid:    binary.LittleEndian.Uint64(obj[ridOffset:]),
				sWord:  binary.LittleEndian.Uint64(s.At(ptr.Off)),
				sPart:  ptr.Part,
				sIndex: s.IndexOf(ptr.Off),
			}
		}
	}
	return table
}

// matches reports whether a lookup's result is the table's.
func (a answers) matches(k key, res mstore.LookupResult) bool {
	if k.part >= len(a) || k.index >= len(a[k.part]) {
		return false
	}
	want := a[k.part][k.index]
	return res.RID == want.rid && res.SWord == want.sWord && res.SPart == want.sPart && res.SIndex == want.sIndex
}
