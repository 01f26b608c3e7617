package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func testJob(id string, priority int) *job {
	return &job{id: id, priority: priority, hub: newEventHub(), done: make(chan struct{})}
}

// TestQueuePriorityOrder: higher priority pops first, FIFO within a
// priority level.
func TestQueuePriorityOrder(t *testing.T) {
	q := newJobQueue(10)
	for _, j := range []*job{
		testJob("low-1", 0), testJob("high-1", 5), testJob("low-2", 0), testJob("high-2", 5),
	} {
		if err := q.push(j, true); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for i := 0; i < 4; i++ {
		j, ok := q.pop()
		if !ok {
			t.Fatal("queue closed early")
		}
		got = append(got, j.id)
	}
	want := []string{"high-1", "high-2", "low-1", "low-2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}

// TestQueueAdmissionControl: pushes beyond depth fail with
// errQueueFull; pops reopen admission.
func TestQueueAdmissionControl(t *testing.T) {
	q := newJobQueue(2)
	if err := q.push(testJob("a", 0), true); err != nil {
		t.Fatal(err)
	}
	if err := q.push(testJob("b", 0), true); err != nil {
		t.Fatal(err)
	}
	if err := q.push(testJob("c", 0), true); !errors.Is(err, errQueueFull) {
		t.Fatalf("third push = %v, want errQueueFull", err)
	}
	q.pop()
	if err := q.push(testJob("c", 0), true); err != nil {
		t.Fatalf("push after pop = %v", err)
	}
}

// TestQueueCloseDrains: close stops admission immediately but queued
// jobs still drain; pop reports exhaustion only after the backlog.
func TestQueueCloseDrains(t *testing.T) {
	q := newJobQueue(4)
	q.push(testJob("a", 0), true)
	q.push(testJob("b", 1), true)
	q.close()
	if err := q.push(testJob("c", 0), true); !errors.Is(err, errDraining) {
		t.Fatalf("push after close = %v, want errDraining", err)
	}
	if j, ok := q.pop(); !ok || j.id != "b" {
		t.Fatalf("first drained job = %v, %v", j, ok)
	}
	if j, ok := q.pop(); !ok || j.id != "a" {
		t.Fatalf("second drained job = %v, %v", j, ok)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop after drain should report closed")
	}
}

// TestQueuePopBlocksUntilPush: pop waits for work.
func TestQueuePopBlocksUntilPush(t *testing.T) {
	q := newJobQueue(1)
	got := make(chan string, 1)
	go func() {
		j, ok := q.pop()
		if ok {
			got <- j.id
		}
	}()
	time.Sleep(10 * time.Millisecond)
	q.push(testJob("late", 0), true)
	select {
	case id := <-got:
		if id != "late" {
			t.Fatalf("popped %q", id)
		}
	case <-time.After(time.Second):
		t.Fatal("pop never woke up")
	}
}

// TestPriorityGateAdmitsHighestFirst: with one slot held and two
// waiters queued, releasing admits the higher-priority waiter.
func TestPriorityGateAdmitsHighestFirst(t *testing.T) {
	g := newPriorityGate(1)
	release, err := g.acquire(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}

	order := make(chan int, 2)
	var wg sync.WaitGroup
	start := func(priority int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := g.acquire(context.Background(), priority)
			if err != nil {
				t.Error(err)
				return
			}
			order <- priority
			r()
		}()
	}
	start(1)
	waitForWaiters(t, g, 1)
	start(7)
	waitForWaiters(t, g, 2)

	release()
	wg.Wait()
	if first, second := <-order, <-order; first != 7 || second != 1 {
		t.Fatalf("admission order = %d,%d, want 7,1", first, second)
	}
}

// TestPriorityGateAbandonedWaiter: a waiter whose ctx ends must not
// strand the slot it was about to receive.
func TestPriorityGateAbandonedWaiter(t *testing.T) {
	g := newPriorityGate(1)
	release, err := g.acquire(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := g.acquire(ctx, 5)
		errCh <- err
	}()
	waitForWaiters(t, g, 1)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned acquire = %v", err)
	}
	release()
	// The slot must be recoverable by a fresh waiter.
	done := make(chan struct{})
	go func() {
		r, err := g.acquire(context.Background(), 0)
		if err == nil {
			r()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("slot stranded by abandoned waiter")
	}
}

func waitForWaiters(t *testing.T, g *priorityGate, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		g.mu.Lock()
		w := g.waiters.Len()
		g.mu.Unlock()
		if w >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d waiters", n)
		}
		time.Sleep(time.Millisecond)
	}
}
