package service

import (
	"container/heap"
	"errors"
	"fmt"
	"sync"
)

// errQueueFull is admission control's signal; the HTTP layer turns it
// into 429 + Retry-After so callers back off instead of piling work
// onto a queue that is already beyond its depth limit.
var errQueueFull = errors.New("service: job queue full")

// errDraining rejects new work once shutdown has begun.
var errDraining = errors.New("service: draining, not accepting jobs")

// jobQueue is the daemon's bounded priority queue: higher Priority
// pops first, FIFO within a priority. Push never blocks — beyond depth
// it fails with errQueueFull. Pop blocks until work or close.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	depth  int
	seq    uint64
	items  priorityHeap[*job]
	closed bool
}

func newJobQueue(depth int) *jobQueue {
	q := &jobQueue{depth: depth}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues j. bounded applies the depth bound, failing with
// errQueueFull beyond it. Jobs already admitted under the bound once
// skip it: WAL recovery (dropping them on restart would turn a crash
// into acknowledged-job loss) and preempted jobs returning to the queue
// (shedding them would turn a preemption into a rejection the client
// was never warned about). Every push takes a fresh seq, so a requeued
// job waits behind same-priority work that arrived while it ran.
func (q *jobQueue) push(j *job, bounded bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errDraining
	}
	if bounded && q.items.Len() >= q.depth {
		return fmt.Errorf("%w (depth %d)", errQueueFull, q.depth)
	}
	j.seq = q.seq
	q.seq++
	heap.Push(&q.items, j)
	q.cond.Signal()
	return nil
}

// pop blocks for the next job; ok is false when the queue is closed
// and fully drained.
func (q *jobQueue) pop() (j *job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.items.Len() == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.items.Len() == 0 {
		return nil, false
	}
	return heap.Pop(&q.items).(*job), true
}

func (q *jobQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items.Len()
}

// close stops admission; queued jobs still drain through pop.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// ranked is an entry of a priorityHeap: its priority and its arrival
// sequence number.
type ranked interface {
	rank() (priority int, seq uint64)
}

func (j *job) rank() (int, uint64) { return j.priority, j.seq }

// priorityHeap is the container/heap order the job queue and the cell
// gate share: higher priority first, FIFO within a priority.
type priorityHeap[T ranked] []T

func (h priorityHeap[T]) Len() int { return len(h) }
func (h priorityHeap[T]) Less(i, j int) bool {
	pi, si := h[i].rank()
	pj, sj := h[j].rank()
	return pi > pj || pi == pj && si < sj
}
func (h priorityHeap[T]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *priorityHeap[T]) Push(x any)   { *h = append(*h, x.(T)) }
func (h *priorityHeap[T]) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	var zero T
	old[n-1] = zero
	*h = old[:n-1]
	return x
}
