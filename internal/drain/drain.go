// Package drain is the register-under-lock discipline that keeps a
// mapping alive while requests read it: work registers before it
// touches the mapping, or finds the gate closing and stays away, and
// closing waits for the work already registered.
package drain

import (
	"context"
	"sync"
	"sync/atomic"
)

// Gate counts the work in flight against one resource. Enter and Close
// order under one mutex: every unit of work either registers before
// Close flips the gate, and Close waits for it, or observes the flip and
// is refused. The mutex also keeps a first Enter from running on a zero
// counter concurrently with Close's wait, which sync.WaitGroup forbids.
// The zero Gate is open.
type Gate struct {
	mu       sync.Mutex
	inflight sync.WaitGroup
	closing  atomic.Bool
}

// Enter registers one unit of work, or reports false once the gate is
// closing. A caller that gets true must call Exit when the work ends.
func (g *Gate) Enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closing.Load() {
		return false
	}
	g.inflight.Add(1)
	return true
}

// Exit ends one registered unit of work.
func (g *Gate) Exit() { g.inflight.Done() }

// Closing reports whether Close has been called.
func (g *Gate) Closing() bool { return g.closing.Load() }

// Close refuses every later Enter and waits until each registered unit
// has exited, or ctx ends; the gate stays closed either way.
func (g *Gate) Close(ctx context.Context) error {
	g.mu.Lock()
	g.closing.Store(true)
	g.mu.Unlock()
	done := make(chan struct{})
	go func() {
		g.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
