// GIS: a geographic store — the third application domain the paper's
// introduction cites. Land parcels (S) carry bounding boxes; survey
// observations (R) hold virtual pointers to their parcels. An STR-packed
// R-tree inside the parcel segment answers region queries, and the
// parallel pointer joins aggregate observations per parcel. The store is
// reopened between build and query to show the spatial index surviving
// with no pointer fixup, and a second rectangle set (flood-risk zones)
// is intersection-joined against the reopened tree by synchronized
// descent on the morsel pool, with the result checked against a
// brute-force scan.
//
// Run with: go run ./examples/gis
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"mmjoin/internal/exec"
	"mmjoin/internal/join"
	"mmjoin/internal/mstore"
)

// Parcel payload (after the 8-byte identity word): center x, y as
// float64 (the full box is reconstructed from a fixed half-extent).
const (
	parcelXOff = 8
	parcelYOff = 16
	halfExtent = 0.5
)

func main() {
	dir, err := os.MkdirTemp("", "mmjoin-gis")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	const (
		d            = 4
		parcels      = 8000
		observations = 32000
		objSize      = 64
	)

	// Build parcels and observations; give each parcel a position on a
	// 100x100 map.
	db, err := mstore.CreateDB(filepath.Join(dir, "land"), d, observations, parcels, objSize, 17)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	var entries []mstore.SpatialEntry
	for j := 0; j < d; j++ {
		for x := 0; x < db.S[j].Count(); x++ {
			obj := db.S[j].Object(x)
			px, py := rng.Float64()*100, rng.Float64()*100
			binary.LittleEndian.PutUint64(obj[parcelXOff:], math.Float64bits(px))
			binary.LittleEndian.PutUint64(obj[parcelYOff:], math.Float64bits(py))
			if j == 0 { // index partition 0's parcels spatially
				entries = append(entries, mstore.SpatialEntry{
					Rect: mstore.Rect{
						MinX: px - halfExtent, MinY: py - halfExtent,
						MaxX: px + halfExtent, MaxY: py + halfExtent,
					},
					Item: db.S[0].PtrAt(x),
				})
			}
		}
	}
	tree, err := mstore.BuildRTree(db.S[0].Segment(), entries, 16)
	if err != nil {
		log.Fatal(err)
	}
	db.S[0].Segment().SetAuxRoot(tree.Head())
	fmt.Printf("built: %d parcels (%d spatially indexed), %d observations; R-tree height %d\n",
		parcels, tree.Len(), observations, tree.Height())
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}

	// Reopen: the R-tree and all cross-segment pointers remain valid.
	db, err = mstore.OpenDB(filepath.Join(dir, "land"), d)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	tree, err = mstore.OpenRTree(db.S[0].Segment(), db.S[0].Segment().AuxRoot())
	if err != nil {
		log.Fatal(err)
	}

	// Count observations per parcel with a pointer join.
	perParcel := map[mstore.SPtr]int{}
	for i := 0; i < d; i++ {
		for x := 0; x < db.R[i].Count(); x++ {
			perParcel[mstore.DecodeSPtr(db.R[i].Object(x))]++
		}
	}
	st, err := db.Run(mstore.JoinRequest{
		// A grant of half a parcel partition keeps that half resident.
		Algorithm: join.HybridHash, K: 8, MRproc: parcels / d * objSize / 2,
		TmpDir: filepath.Join(dir, "tmp"),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("joined %d observations with their parcels (hybrid-hash pointer join)\n", st.Pairs)

	// Region report: parcels in a window, with their observation counts,
	// via the persistent spatial index.
	window := mstore.Rect{MinX: 25, MinY: 25, MaxX: 35, MaxY: 35}
	found, obs := 0, 0
	tree.Search(window, func(e mstore.SpatialEntry) bool {
		found++
		obs += perParcel[mstore.SPtr{Part: 0, Off: e.Item}]
		return true
	})
	fmt.Printf("region (%.0f,%.0f)-(%.0f,%.0f): %d parcels, %d observations\n",
		window.MinX, window.MinY, window.MaxX, window.MaxY, found, obs)

	// Spatial join: this quarter's flood-risk zones arrive as a second
	// rectangle set; which parcels does each zone touch? The zones are
	// STR-packed into a scratch segment and intersection-joined against
	// the reopened parcel tree by synchronized descent on the morsel pool
	// — no linear scan of either side. Each worker tallies into its own
	// slot, folded after the join.
	zseg, err := mstore.Create(filepath.Join(dir, "zones"), 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	defer zseg.Close()
	zrng := rand.New(rand.NewSource(23))
	const zones = 300
	zentries := make([]mstore.SpatialEntry, zones)
	for z := range zentries {
		zx, zy := zrng.Float64()*100, zrng.Float64()*100
		zentries[z] = mstore.SpatialEntry{
			Rect: mstore.Rect{MinX: zx, MinY: zy, MaxX: zx + 3, MaxY: zy + 3},
			Item: mstore.Ptr(z + 1),
		}
	}
	zref := append([]mstore.SpatialEntry(nil), zentries...)
	zoneTree, err := mstore.BuildRTree(zseg, zentries, 16)
	if err != nil {
		log.Fatal(err)
	}
	p := exec.NewPool(0)
	defer p.Close()
	perWorker := make([]int, p.Workers())
	atRiskBy := make([]map[mstore.Ptr]bool, p.Workers())
	for w := range atRiskBy {
		atRiskBy[w] = map[mstore.Ptr]bool{}
	}
	if err := tree.ParallelIntersectJoin(context.Background(), p, zoneTree, func(w int, parcel, zone mstore.SpatialEntry) {
		perWorker[w]++
		atRiskBy[w][parcel.Item] = true
	}); err != nil {
		log.Fatal(err)
	}
	pairs, atRisk := 0, map[mstore.Ptr]bool{}
	for w, n := range perWorker {
		pairs += n
		for parcel := range atRiskBy[w] {
			atRisk[parcel] = true
		}
	}

	// Cross-check against the O(n·m) scan, rebuilding parcel boxes from
	// the mapped objects themselves.
	brute := 0
	for x := 0; x < db.S[0].Count(); x++ {
		obj := db.S[0].Object(x)
		px := math.Float64frombits(binary.LittleEndian.Uint64(obj[parcelXOff:]))
		py := math.Float64frombits(binary.LittleEndian.Uint64(obj[parcelYOff:]))
		box := mstore.Rect{MinX: px - halfExtent, MinY: py - halfExtent, MaxX: px + halfExtent, MaxY: py + halfExtent}
		for _, z := range zref {
			if box.Intersects(z.Rect) {
				brute++
			}
		}
	}
	if pairs != brute {
		log.Fatalf("spatial join found %d pairs, brute force %d", pairs, brute)
	}

	fmt.Printf("spatial join: %d zone-parcel pairs (%d parcels at risk) on %d workers, brute force agrees\n",
		pairs, len(atRisk), p.Workers())
}
