package mstore

import (
	"slices"
	"testing"
)

// The store's ns-per-pair point: finish a fixed Grace bucket set through
// orderProbe, staging excluded. Run with
//
//	go test -run '^$' -bench OrderProbe -benchmem ./internal/mstore/
//
// window is the production shape — every bucket within one 1 MiB window
// and one morsel, probed inline — and must report 0 allocs/op. ordered
// narrows the window to 256 B so every bucket is ordered in place first;
// each pass restores the staged order (one copy, timed with it).
func BenchmarkOrderProbe(b *testing.B) {
	for _, c := range []struct {
		name    string
		winBits int
	}{{"window", windowBits}, {"ordered", 8}} {
		b.Run(c.name, func(b *testing.B) {
			bs := graceBuckets(b, makeDB(b, 20000), 37, c.winBits)
			staged := make([][]ref, len(bs.buckets))
			for i, bk := range bs.buckets {
				staged[i] = slices.Clone(bk.refs)
			}
			want := bs.orderProbe(b)
			b.SetBytes(bs.refs * 8) // gathered S words per pass
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if c.winBits != windowBits {
					for i, bk := range bs.buckets {
						copy(bk.refs, staged[i])
					}
				}
				if st := bs.orderProbe(b); st != want {
					b.Fatal("stats diverged")
				}
			}
		})
	}
}
