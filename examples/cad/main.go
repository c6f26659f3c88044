// CAD: a bill-of-materials workload on the real memory-mapped store —
// the kind of application (computer-aided design) the paper's
// introduction argues single-level stores serve best.
//
// A parts catalogue lives in S segments; assembly usage records (which
// part, how many, where in the assembly) live in R segments, each
// holding a virtual pointer to its part. The program builds the store,
// closes it, reopens it — demonstrating that exactly positioned pointers
// survive without swizzling — and then "explodes" the bill of materials
// with a parallel pointer-based join.
//
// Run with: go run ./examples/cad
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"mmjoin/internal/join"
	"mmjoin/internal/mstore"
)

// Part is a catalogue entry in S (fits the 64-byte object payload after
// the 8-byte identity word the store maintains).
//
//	[0:8)   identity word (store)
//	[8:16)  unit mass in grams
//	[16:24) unit cost in cents
type partCodec struct{}

func (partCodec) set(obj []byte, grams, cents uint64) {
	binary.LittleEndian.PutUint64(obj[8:], grams)
	binary.LittleEndian.PutUint64(obj[16:], cents)
}
func (partCodec) grams(obj []byte) uint64 { return binary.LittleEndian.Uint64(obj[8:]) }
func (partCodec) cents(obj []byte) uint64 { return binary.LittleEndian.Uint64(obj[16:]) }

// Usage is an R record: after the store's pointer+id prefix it carries
// the quantity of the referenced part used at one assembly position.
const usageQtyOff = 20 // past SPtr (12) + rid (8)

func main() {
	dir, err := os.MkdirTemp("", "mmjoin-cad")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	const (
		d       = 4
		parts   = 12000
		usages  = 48000
		objSize = 64
	)

	// Build the store. CreateDB lays out the segments and pointers; we
	// then overwrite the payloads with CAD data through the mapping.
	db, err := mstore.CreateDB(filepath.Join(dir, "bom"), d, usages, parts, objSize, 7)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var pc partCodec
	for j := 0; j < d; j++ {
		for x := 0; x < db.S[j].Count(); x++ {
			pc.set(db.S[j].Object(x), uint64(rng.Intn(5000)+1), uint64(rng.Intn(100000)+1))
		}
	}
	for i := 0; i < d; i++ {
		for x := 0; x < db.R[i].Count(); x++ {
			binary.LittleEndian.PutUint32(db.R[i].Object(x)[usageQtyOff:], uint32(rng.Intn(8)+1))
		}
	}
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("catalogue: %d parts; bill of materials: %d usage records (on disk)\n",
		parts, usages)

	// Reopen: pointers are offsets into exactly positioned segments, so
	// no swizzling pass runs here — the paper's central premise.
	db, err = mstore.OpenDB(filepath.Join(dir, "bom"), d)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Explode the BOM: join every usage with its part and roll up mass
	// and cost. The sort-merge pointer join keeps part reads sequential.
	start := time.Now()
	st, err := db.Run(mstore.JoinRequest{Algorithm: join.SortMerge, TmpDir: filepath.Join(dir, "tmp")})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	var grams, cents uint64
	for i := 0; i < d; i++ {
		rel := db.R[i]
		for x := 0; x < rel.Count(); x++ {
			obj := rel.Object(x)
			qty := uint64(binary.LittleEndian.Uint32(obj[usageQtyOff:]))
			ptr := mstore.DecodeSPtr(obj)
			part := db.S[ptr.Part].At(ptr.Off)
			grams += qty * pc.grams(part)
			cents += qty * pc.cents(part)
		}
	}
	fmt.Printf("exploded %d usages in %v (parallel pointer sort-merge join)\n",
		st.Pairs, elapsed.Round(time.Microsecond))
	fmt.Printf("assembly totals: %.1f kg, $%.2f\n",
		float64(grams)/1000, float64(cents)/100)
}
