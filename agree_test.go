package mmjoin

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"mmjoin/internal/join"
	"mmjoin/internal/machine"
	"mmjoin/internal/mstore"
	"mmjoin/internal/shard"
)

// TestSimulatorAndStoreAgree is the differential test between the two
// implementations of each algorithm: one seeded store, and the workload
// read back from its mapped files, go through the simulated pointer
// joins, every store operator and a 3-shard router. Each family must
// reproduce its own reference exactly (the simulator's signature hashes
// (partition, index) pairs, the store's hashes object ids, so signatures
// compare within a family) and all three must count the same pairs.
func TestSimulatorAndStoreAgree(t *testing.T) {
	const d, objects = 4, 2000
	base := t.TempDir()
	srcDir := filepath.Join(base, "src")
	db, err := mstore.CreateDB(srcDir, d, objects, objects, 64, 23)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.BuildIndexes(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	want := db.ExpectedStats()
	w, err := db.Workload()
	if err != nil {
		t.Fatal(err)
	}

	wantSig, wantPairs := w.JoinSignature()
	if wantPairs != want.Pairs {
		t.Fatalf("workload reference join has %d pairs, store reference %d", wantPairs, want.Pairs)
	}
	cfg := machine.DefaultConfig()
	cfg.D = d
	pointer := []join.Algorithm{join.NestedLoops, join.SortMerge, join.Grace, join.HybridHash}
	for _, alg := range pointer {
		res, err := join.Request{
			Algorithm: alg, Config: cfg,
			Params: join.Params{Workload: w, MRproc: 16 << 10, Stagger: true},
		}.Run()
		if err != nil {
			t.Fatalf("simulated %v: %v", alg, err)
		}
		if err := res.CheckInvariants(w); err != nil {
			t.Errorf("simulated %v: %v", alg, err)
		}
		if res.Pairs != wantPairs || res.Signature != wantSig {
			t.Errorf("simulated %v: %d pairs, signature %#x; want %d, %#x",
				alg, res.Pairs, res.Signature, wantPairs, wantSig)
		}
	}

	for _, alg := range append(pointer, join.IndexNL, join.IndexMerge) {
		st, err := db.Run(mstore.JoinRequest{Algorithm: alg, MRproc: 16 << 10})
		if err != nil {
			t.Fatalf("store %v: %v", alg, err)
		}
		if st != want {
			t.Errorf("store %v: %+v, want %+v", alg, st, want)
		}
	}

	outs := make([]string, 3)
	for k := range outs {
		outs[k] = filepath.Join(base, fmt.Sprintf("shard-%d", k))
	}
	m, err := shard.Split(srcDir, d, outs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := shard.Open(m, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, alg := range pointer {
		st, err := r.Run(mstore.JoinRequest{Algorithm: alg, MRproc: 16 << 10})
		if err != nil {
			t.Fatalf("sharded %v: %v", alg, err)
		}
		if st != want {
			t.Errorf("sharded %v: %+v, want %+v", alg, st, want)
		}
	}
}
