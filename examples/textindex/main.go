// Textindex: a small text-retrieval store — one of the application
// domains (text management) the paper's introduction says single-level
// stores serve best. A vocabulary relation (S) holds term statistics, a
// postings relation (R) holds (term-pointer, document) entries, and a
// persistent B+tree inside the vocabulary segment maps term hashes to
// term objects. Everything lives in memory-mapped segments; the store is
// closed and reopened to show that both the relation pointers and the
// B-tree survive with zero fixup.
//
// Run with: go run ./examples/textindex
package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"mmjoin/internal/join"
	"mmjoin/internal/mstore"
)

// Term object payload (after the store's 8-byte identity word):
//
//	[8:16)  term hash (so the object is self-describing)
//	[16:24) document frequency, maintained at build time
const (
	termHashOff = 8
	termDFOff   = 16
)

// Posting object payload (after SPtr + rid prefix): document id u32.
const postingDocOff = 20

var vocabulary = []string{
	"persistent", "pointer", "join", "segment", "virtual", "memory",
	"mapped", "store", "relation", "bucket", "heap", "merge", "page",
	"fault", "disk", "band", "transfer", "swizzle", "partition", "model",
}

func termHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func main() {
	dir, err := os.MkdirTemp("", "mmjoin-textindex")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	const (
		d        = 4
		docs     = 2500
		postings = 20000
		objSize  = 64
	)

	// Build: CreateDB lays out terms (S) and postings (R); postings
	// reference uniformly random terms. Rewrite the payloads into text
	// shapes and index the terms with a B-tree in segment 0.
	db, err := mstore.CreateDB(filepath.Join(dir, "idx"), d, postings, len(vocabulary)*d, objSize, 99)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for j := 0; j < d; j++ {
		for x := 0; x < db.S[j].Count(); x++ {
			term := vocabulary[x%len(vocabulary)]
			obj := db.S[j].Object(x)
			binary.LittleEndian.PutUint64(obj[termHashOff:], termHash(term)+uint64(j)) // unique per partition
			binary.LittleEndian.PutUint64(obj[termDFOff:], 0)
		}
	}
	for i := 0; i < d; i++ {
		for x := 0; x < db.R[i].Count(); x++ {
			obj := db.R[i].Object(x)
			binary.LittleEndian.PutUint32(obj[postingDocOff:], uint32(rng.Intn(docs)))
			// Maintain document frequency on the referenced term through
			// the pointer — a cross-segment update with no translation.
			ptr := mstore.DecodeSPtr(obj)
			term := db.S[ptr.Part].At(ptr.Off)
			df := binary.LittleEndian.Uint64(term[termDFOff:])
			binary.LittleEndian.PutUint64(term[termDFOff:], df+1)
		}
	}
	// Index: term hash → term pointer, tree persisted inside S0's segment.
	seg0 := db.S[0].Segment()
	tree, err := mstore.CreateBTree(seg0, 512)
	if err != nil {
		log.Fatal(err)
	}
	for x := 0; x < db.S[0].Count(); x++ {
		obj := db.S[0].Object(x)
		if err := tree.Insert(binary.LittleEndian.Uint64(obj[termHashOff:]), db.S[0].PtrAt(x)); err != nil {
			log.Fatal(err)
		}
	}
	seg0.SetAuxRoot(tree.Head())
	fmt.Printf("built: %d postings over %d terms (%d partitions), B-tree of %d keys\n",
		postings, len(vocabulary)*d, d, tree.Len())
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}

	// Reopen — exact positioning means the tree and every pointer are
	// valid immediately.
	db, err = mstore.OpenDB(filepath.Join(dir, "idx"), d)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	tree, err = mstore.OpenBTree(db.S[0].Segment(), db.S[0].Segment().AuxRoot())
	if err != nil {
		log.Fatal(err)
	}

	// Point lookups through the persistent index.
	fmt.Println("\nterm lookups via the mapped B-tree (partition 0):")
	for _, q := range []string{"pointer", "swizzle", "unknown-term"} {
		p, ok := tree.Get(termHash(q))
		if !ok {
			fmt.Printf("  %-12s -> not indexed\n", q)
			continue
		}
		term := db.S[0].At(p)
		fmt.Printf("  %-12s -> df=%d (term object at offset %d)\n",
			q, binary.LittleEndian.Uint64(term[termDFOff:]), p)
	}

	// Pointer-join the postings with their terms (Grace) and verify the
	// per-term counts against the df counters maintained at build time.
	st, err := db.Run(mstore.JoinRequest{Algorithm: join.Grace, K: 8, TmpDir: filepath.Join(dir, "tmp")})
	if err != nil {
		log.Fatal(err)
	}
	counts := map[mstore.SPtr]uint64{}
	for i := 0; i < d; i++ {
		for x := 0; x < db.R[i].Count(); x++ {
			counts[mstore.DecodeSPtr(db.R[i].Object(x))]++
		}
	}
	mismatches := 0
	for ptr, n := range counts {
		term := db.S[ptr.Part].At(ptr.Off)
		if binary.LittleEndian.Uint64(term[termDFOff:]) != n {
			mismatches++
		}
	}
	fmt.Printf("\njoined %d postings with their terms; %d df mismatches\n", st.Pairs, mismatches)
}
