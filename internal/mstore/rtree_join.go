package mstore

import (
	"context"

	"mmjoin/internal/exec"
)

// Spatial intersection join over two STR-packed R-trees: the synchronized
// descent of Brinkhoff et al., restricted at every level to node pairs
// whose bounding rectangles overlap. Both trees live in mapped segments,
// so the descent dereferences virtual pointers exactly like the key
// joins — no part of either index is deserialized first — and subtree
// pairs spread over the shared morsel pool the same way the key joins
// spread partition ranges.

// nodeMBR unions a node's entry rectangles. Callers guarantee the node
// is non-empty (only an empty tree's root has count 0).
func (t *RTree) nodeMBR(n Ptr) Rect {
	c := t.nodeCount(n)
	mbr := t.entryAt(n, 0).Rect
	for i := 1; i < c; i++ {
		mbr = mbr.union(t.entryAt(n, i).Rect)
	}
	return mbr
}

// rtPair is a subtree of t zipped against a subtree of o: one element
// of the join's breadth-first frontier, and one step of a task's
// descent.
type rtPair struct{ a, b Ptr }

// expand is the join's one step: it zips the nodes of pr and passes
// every intersecting pair of leaf entries to pair when both nodes are
// leaves, and otherwise every intersecting pair of children to child.
// Internal levels prune on child-MBR intersection; when the trees have
// different heights the shallower side waits at its leaf, its MBR
// against each child of the other, while the other keeps descending.
func (t *RTree) expand(o *RTree, pr rtPair, pair func(a, b SpatialEntry), child func(rtPair)) {
	la, lb := t.isLeafNode(pr.a), o.isLeafNode(pr.b)
	switch {
	case la && !lb:
		mbr := t.nodeMBR(pr.a)
		for j, cb := 0, o.nodeCount(pr.b); j < cb; j++ {
			if eb := o.entryAt(pr.b, j); mbr.Intersects(eb.Rect) {
				child(rtPair{pr.a, eb.Item})
			}
		}
	case lb && !la:
		mbr := o.nodeMBR(pr.b)
		for i, ca := 0, t.nodeCount(pr.a); i < ca; i++ {
			if ea := t.entryAt(pr.a, i); mbr.Intersects(ea.Rect) {
				child(rtPair{ea.Item, pr.b})
			}
		}
	default: // both leaves, or both internal
		ca, cb := t.nodeCount(pr.a), o.nodeCount(pr.b)
		for i := 0; i < ca; i++ {
			ea := t.entryAt(pr.a, i)
			for j := 0; j < cb; j++ {
				eb := o.entryAt(pr.b, j)
				switch {
				case !ea.Rect.Intersects(eb.Rect):
				case la:
					pair(ea, eb)
				default:
					child(rtPair{ea.Item, eb.Item})
				}
			}
		}
	}
}

// joinNodes descends pr depth-first, passing every intersecting pair of
// leaf entries below it to pair.
func (t *RTree) joinNodes(o *RTree, pr rtPair, pair func(a, b SpatialEntry)) {
	t.expand(o, pr, pair, func(c rtPair) { t.joinNodes(o, c, pair) })
}

// ParallelIntersectJoin calls fn for every pair of indexed entries (a
// from t, b from o) whose rectangles intersect, with the descent spread
// over the pool (nil: a GOMAXPROCS pool made for the call): the root
// pair is expanded breadth-first until there are enough intersecting
// subtree pairs to keep every worker busy, then each pair descends
// depth-first on a pool task. fn is called concurrently from pool
// workers (the worker index is passed so callers can accumulate into
// per-worker state); the multiset of reported pairs is the same for any
// worker count, but the order is not — fold results commutatively, as
// the key-join kernels do.
func (t *RTree) ParallelIntersectJoin(ctx context.Context, p *exec.Pool, o *RTree, fn func(worker int, a, b SpatialEntry)) error {
	if t.Len() == 0 || o.Len() == 0 {
		return nil
	}
	if p == nil {
		p = exec.NewPool(0)
		defer p.Close()
	}
	// Expand breadth-first until the frontier covers the pool. Leaf-leaf
	// pairs stop expanding but stay in the task list.
	target := 4 * p.Workers()
	tasks := []rtPair{{t.root(), o.root()}}
	for len(tasks) > 0 && len(tasks) < target {
		next, grew := make([]rtPair, 0, 2*len(tasks)), false
		for _, pr := range tasks {
			if t.isLeafNode(pr.a) && o.isLeafNode(pr.b) {
				next = append(next, pr)
				continue
			}
			grew = true
			t.expand(o, pr, nil, func(c rtPair) { next = append(next, c) })
		}
		if tasks = next; !grew {
			break
		}
	}
	return p.Run(ctx, rangeTasks(nil, len(tasks), 1, func(worker, lo, hi int) error {
		for _, pr := range tasks[lo:hi] {
			t.joinNodes(o, pr, func(a, b SpatialEntry) { fn(worker, a, b) })
		}
		return nil
	}))
}
