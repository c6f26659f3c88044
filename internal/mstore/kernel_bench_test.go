package mstore

import "testing"

// The store's ns-per-pair point: probe a fixed Grace bucket set through
// the flat-table kernel. Run with
//
//	go test -bench ProbeKernel -benchmem ./internal/mstore/
//
// BenchmarkProbeKernelFlat must report 0 allocs/op — the steady state
// the per-worker arena buys.
func BenchmarkProbeKernelFlat(b *testing.B) {
	bs := graceBuckets(b, makeDB(b, 20000), 37)
	want := bs.probeFlat()  // warm the arena to high-water capacity
	b.SetBytes(bs.refs * 8) // gathered S words per pass
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := bs.probeFlat(); st != want {
			b.Fatal("stats diverged")
		}
	}
}
