package mstore

import (
	"context"

	"mmjoin/internal/exec"
)

// Spatial intersection join over two STR-packed R-trees: the synchronized
// descent of Brinkhoff et al., restricted at every level to node pairs
// whose bounding rectangles overlap. Both trees live in mapped segments,
// so the descent dereferences virtual pointers exactly like the key
// joins — no part of either index is deserialized first — and the
// parallel variant spreads subtree pairs over the shared morsel pool the
// same way the key joins spread partition ranges.

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

// joinNodes descends the pair (na from t, nb from o) and reports every
// intersecting leaf-entry pair to fn, stopping early if fn returns
// false. Internal levels prune on child-MBR intersection; when the trees
// have different heights the shallower side waits at its leaf while the
// other keeps descending.
func (t *RTree) joinNodes(o *RTree, na, nb Ptr, fn func(a, b SpatialEntry) bool) bool {
	la, lb := t.isLeafNode(na), o.isLeafNode(nb)
	switch {
	case la && lb:
		ca, cb := t.nodeCount(na), o.nodeCount(nb)
		for i := 0; i < ca; i++ {
			ea := t.entryAt(na, i)
			for j := 0; j < cb; j++ {
				if eb := o.entryAt(nb, j); ea.Rect.Intersects(eb.Rect) && !fn(ea, eb) {
					return false
				}
			}
		}
	case la:
		mbr := t.nodeMBR(na)
		for j, cb := 0, o.nodeCount(nb); j < cb; j++ {
			if eb := o.entryAt(nb, j); mbr.Intersects(eb.Rect) && !t.joinNodes(o, na, eb.Item, fn) {
				return false
			}
		}
	case lb:
		mbr := o.nodeMBR(nb)
		for i, ca := 0, t.nodeCount(na); i < ca; i++ {
			if ea := t.entryAt(na, i); mbr.Intersects(ea.Rect) && !t.joinNodes(o, ea.Item, nb, fn) {
				return false
			}
		}
	default:
		ca, cb := t.nodeCount(na), o.nodeCount(nb)
		for i := 0; i < ca; i++ {
			ea := t.entryAt(na, i)
			for j := 0; j < cb; j++ {
				if eb := o.entryAt(nb, j); ea.Rect.Intersects(eb.Rect) && !t.joinNodes(o, ea.Item, eb.Item, fn) {
					return false
				}
			}
		}
	}
	return true
}

// IntersectJoin calls fn for every pair of indexed entries (a from t,
// b from o) whose rectangles intersect, stopping early if fn returns
// false. Pairs arrive in the trees' packed order, so repeated runs over
// the same trees see the same sequence.
func (t *RTree) IntersectJoin(o *RTree, fn func(a, b SpatialEntry) bool) {
	if t.Len() == 0 || o.Len() == 0 {
		return
	}
	t.joinNodes(o, t.root(), o.root(), fn)
}

// rtPair is one frontier element of the parallel descent: a subtree of t
// zipped against a subtree of o.
type rtPair struct{ a, b Ptr }

// ParallelIntersectJoin runs the same intersection join with the descent
// frontier spread over the pool: the root pair is expanded breadth-first
// until there are enough intersecting subtree pairs to keep every worker
// busy, then each pair descends sequentially on a pool task. fn is called
// concurrently from pool workers (the worker index is passed so callers
// can accumulate into per-worker state); the multiset of reported pairs
// is identical to IntersectJoin's for any worker count, but the order is
// not — fold results commutatively, as the key-join kernels do.
func (t *RTree) ParallelIntersectJoin(ctx context.Context, p *exec.Pool, o *RTree, fn func(worker int, a, b SpatialEntry)) error {
	if t.Len() == 0 || o.Len() == 0 {
		return nil
	}
	if p == nil {
		pp := exec.NewPool(0)
		defer pp.Close()
		p = pp
	}
	// Expand breadth-first until the frontier covers the pool. Leaf-leaf
	// pairs stop expanding but stay in the task list.
	target := 4 * p.Workers()
	tasks := []rtPair{{t.root(), o.root()}}
	for len(tasks) < target {
		next := make([]rtPair, 0, 2*len(tasks))
		grew := false
		for _, pr := range tasks {
			la, lb := t.isLeafNode(pr.a), o.isLeafNode(pr.b)
			switch {
			case la && lb:
				next = append(next, pr)
			case la:
				mbr := t.nodeMBR(pr.a)
				for j, cb := 0, o.nodeCount(pr.b); j < cb; j++ {
					if eb := o.entryAt(pr.b, j); mbr.Intersects(eb.Rect) {
						next = append(next, rtPair{pr.a, eb.Item})
					}
				}
				grew = true
			case lb:
				mbr := o.nodeMBR(pr.b)
				for i, ca := 0, t.nodeCount(pr.a); i < ca; i++ {
					if ea := t.entryAt(pr.a, i); mbr.Intersects(ea.Rect) {
						next = append(next, rtPair{ea.Item, pr.b})
					}
				}
				grew = true
			default:
				ca, cb := t.nodeCount(pr.a), o.nodeCount(pr.b)
				for i := 0; i < ca; i++ {
					ea := t.entryAt(pr.a, i)
					for j := 0; j < cb; j++ {
						if eb := o.entryAt(pr.b, j); ea.Rect.Intersects(eb.Rect) {
							next = append(next, rtPair{ea.Item, eb.Item})
						}
					}
				}
				grew = true
			}
		}
		tasks = next
		if !grew || len(tasks) == 0 {
			break
		}
	}
	if len(tasks) == 0 {
		return nil
	}
	return p.Run(ctx, rangeTasks(nil, len(tasks), 1, func(worker, lo, hi int) error {
		for x := lo; x < hi; x++ {
			pr := tasks[x]
			t.joinNodes(o, pr.a, pr.b, func(a, b SpatialEntry) bool {
				fn(worker, a, b)
				return true
			})
		}
		return nil
	}))
}
