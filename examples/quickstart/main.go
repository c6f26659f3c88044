// Quickstart: build a small memory-mapped database, run the three
// parallel pointer-based joins over the mapped segments, then reproduce
// one model-vs-experiment point on the simulated 1996 machine.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"mmjoin/internal/core"
	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/mstore"
	"mmjoin/internal/relation"
)

func main() {
	dir, err := os.MkdirTemp("", "mmjoin-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. A real memory-mapped single-level store: two relations of
	// 20,000 objects, partitioned over 4 segment pairs. R's join
	// attribute is a virtual pointer into S — an offset, valid across
	// process restarts because segments are exactly positioned.
	db, err := mstore.CreateDB(filepath.Join(dir, "db"), 4, 20000, 20000, 128, 42)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	want := db.ExpectedStats()
	fmt.Printf("store: %d R-objects pointing into %d S-objects, %d segment pairs\n",
		20000, 20000, db.D)

	tmp := filepath.Join(dir, "tmp")
	for _, alg := range []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace} {
		start := time.Now()
		st, err := db.Run(mstore.JoinRequest{Algorithm: alg, K: 8, TmpDir: tmp})
		if err != nil {
			log.Fatal(err)
		}
		status := "agrees with ground truth"
		if st != want {
			status = "WRONG RESULT"
		}
		fmt.Printf("  %-12s %6d pairs in %8v  (%s)\n",
			alg, st.Pairs, time.Since(start).Round(time.Microsecond), status)
	}

	// 2. The same algorithms on the simulated Sequent-class machine,
	// with the analytical model's prediction alongside — the paper's
	// validation methodology in miniature.
	fmt.Println("\nsimulated 1996 machine (4 disks, 4K pages), MRproc = 0.05·|R|:")
	spec := relation.DefaultSpec()
	spec.NR, spec.NS = 20000, 20000
	e, err := core.NewExperiment(machine.DefaultConfig(), spec)
	if err != nil {
		log.Fatal(err)
	}
	for _, alg := range []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace} {
		cmp, err := e.Compare(alg, e.ParamsForFraction(0.05))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s experiment %7.1fs   model %7.1fs   error %+5.1f%%\n",
			alg, cmp.Measured.Seconds(), cmp.Predicted.Seconds(), 100*cmp.RelError())
	}
}
