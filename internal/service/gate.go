package service

import (
	"container/heap"
	"context"
	"sync"
	"sync/atomic"
)

// priorityGate is the global simulation-cell budget shared by every
// job the daemon runs concurrently. Each cell that runs on this node
// acquires one slot in the daemon's per-cell wrapper (cellRunner for a
// job's own cells, remoteCellRunner for a peer's); when all slots are
// busy, waiters are admitted highest-priority-first (FIFO within a
// priority), so a high-priority job enqueued behind a bulk sweep
// starts stealing slots as soon as individual cells finish rather than
// waiting for the whole sweep.
type priorityGate struct {
	mu      sync.Mutex
	free    int
	seq     uint64
	waiters priorityHeap[*gateWaiter]
}

type gateWaiter struct {
	priority int
	seq      uint64
	ready    chan struct{}
	// claimed flips exactly once: either release hands this waiter the
	// slot, or the waiter abandons (ctx ended). The loser of the race
	// must give the slot back.
	claimed atomic.Bool
}

func (w *gateWaiter) rank() (int, uint64) { return w.priority, w.seq }

func newPriorityGate(slots int) *priorityGate {
	if slots <= 0 {
		return nil
	}
	return &priorityGate{free: slots}
}

// acquire blocks until a slot is free (or ctx ends) and returns its
// release function.
func (g *priorityGate) acquire(ctx context.Context, priority int) (func(), error) {
	g.mu.Lock()
	if g.free > 0 {
		g.free--
		g.mu.Unlock()
		return g.release, nil
	}
	w := &gateWaiter{priority: priority, seq: g.seq, ready: make(chan struct{})}
	g.seq++
	heap.Push(&g.waiters, w)
	g.mu.Unlock()

	select {
	case <-w.ready:
		return g.release, nil
	case <-ctx.Done():
		if !w.claimed.CompareAndSwap(false, true) {
			// release already handed us the slot; pass it on.
			g.release()
		}
		return nil, ctx.Err()
	}
}

// release returns a slot, handing it to the best live waiter if any.
func (g *priorityGate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.waiters.Len() > 0 {
		w := heap.Pop(&g.waiters).(*gateWaiter)
		if w.claimed.CompareAndSwap(false, true) {
			close(w.ready)
			return
		}
		// Abandoned waiter (ctx ended); try the next one.
	}
	g.free++
}
