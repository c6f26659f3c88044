package drain

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestGateCloseWaitsForRegisteredWork: Close refuses later Enters, waits
// for every registered unit and, when its context ends first, returns
// the context's error with the gate left closed.
func TestGateCloseWaitsForRegisteredWork(t *testing.T) {
	var g Gate
	if !g.Enter() || !g.Enter() || g.Closing() {
		t.Fatal("a zero gate refused work")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := g.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close with two units in flight returned %v", err)
	}
	if g.Enter() || !g.Closing() {
		t.Fatal("a closing gate admitted work")
	}
	closed := make(chan error, 1)
	go func() { closed <- g.Close(context.Background()) }()
	g.Exit()
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with one unit still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	g.Exit()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}
