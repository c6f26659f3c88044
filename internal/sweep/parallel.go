package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// forEach runs point(i) for every i in [0, n) on min(GOMAXPROCS, n)
// goroutines. Sweep points are embarrassingly parallel — each builds its
// own simulation kernel, disks and pagers, and workloads are shared
// read-only — and the simulator runs on a virtual clock, so the worker
// count changes wall-clock only, never a result. Workers pull indexes
// from a shared counter, so points start in ascending order and every
// index below a pulled one has been pulled too. Once a point fails no
// new point starts (in-flight ones finish), and the error of the
// lowest-indexed failing point is returned: the one a sequential loop
// would have stopped at.
func forEach(n int, point func(i int) error) error {
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
		errs = make([]error, n)
	)
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = point(i); errs[i] != nil {
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
