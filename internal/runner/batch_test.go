package runner

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunBatchQuarantinesFailures(t *testing.T) {
	boom := errors.New("boom")
	jobs := make([]Job[int], 20)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Cell: Cell{Mix: "WL-1", Bundle: "b", Seed: uint64(i)},
			Run: func() (int, error) {
				if i%5 == 3 {
					return 0, boom
				}
				return i * i, nil
			},
		}
	}
	b, err := RunBatch(context.Background(), jobs, Options[int]{Parallelism: 4})
	if err != nil {
		t.Fatalf("quarantine mode must not fail the batch: %v", err)
	}
	if len(b.Failed) != 4 {
		t.Fatalf("Failed = %d cells, want 4", len(b.Failed))
	}
	// Failures are listed in batch-index order with identity preserved.
	wantIdx := []int{3, 8, 13, 18}
	for k, ce := range b.Failed {
		if ce.Index != wantIdx[k] {
			t.Errorf("Failed[%d].Index = %d, want %d", k, ce.Index, wantIdx[k])
		}
		if !errors.Is(ce, boom) {
			t.Errorf("Failed[%d] does not unwrap to the job error", k)
		}
		if ce.Cell.Seed != uint64(ce.Index) {
			t.Errorf("Failed[%d] lost its cell identity: %+v", k, ce.Cell)
		}
	}
	// Every healthy cell still completed with its own result.
	for i := range jobs {
		failed := i%5 == 3
		if b.OK[i] == failed {
			t.Errorf("OK[%d] = %v, want %v", i, b.OK[i], !failed)
		}
		if !failed && b.Results[i] != i*i {
			t.Errorf("Results[%d] = %d, want %d", i, b.Results[i], i*i)
		}
	}
	if b.Skipped != 0 {
		t.Errorf("Skipped = %d, want 0", b.Skipped)
	}
	if !errors.Is(b.Err(), boom) {
		t.Errorf("Batch.Err() = %v, want to wrap %v", b.Err(), boom)
	}
}

// TestRunBatchNonTransientNotRetried: a failed cell runs exactly once.
// Cells are deterministic, so re-running one would only fail again.
func TestRunBatchNonTransientNotRetried(t *testing.T) {
	var attempts atomic.Int64
	jobs := []Job[int]{{Run: func() (int, error) {
		attempts.Add(1)
		return 0, errors.New("deterministic model error")
	}}}
	b, _ := RunBatch(context.Background(), jobs, Options[int]{})
	if attempts.Load() != 1 {
		t.Errorf("executions = %d, want 1: a failed cell must not re-run", attempts.Load())
	}
	if len(b.Failed) != 1 {
		t.Errorf("Failed = %v, want the one cell", b.Failed)
	}
}

func TestRunBatchPanicPreservesValueAndStack(t *testing.T) {
	type custom struct{ code int }
	jobs := []Job[int]{
		{Run: func() (int, error) { return 1, nil }},
		{Cell: Cell{Mix: "WL-9", Density: "32Gb", Bundle: "codesign", Seed: 7},
			Run: func() (int, error) { panicHelperForStack(custom{code: 42}); return 0, nil }},
	}
	b, err := RunBatch(context.Background(), jobs, Options[int]{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Failed) != 1 {
		t.Fatalf("Failed = %v, want exactly the panicking cell", b.Failed)
	}
	ce := b.Failed[0]
	if !ce.Panicked() {
		t.Fatal("Panicked() = false for a panicking cell")
	}
	// The original value survives with its concrete type — not a
	// fmt.Sprintf flattening.
	if got, ok := ce.PanicValue.(custom); !ok || got.code != 42 {
		t.Fatalf("PanicValue = %#v, want custom{code: 42}", ce.PanicValue)
	}
	// The captured stack is the panicking goroutine's, naming the frame
	// that blew up.
	if !strings.Contains(string(ce.Stack), "panicHelperForStack") {
		t.Errorf("Stack does not contain the panicking frame:\n%s", ce.Stack)
	}
	for _, want := range []string{"WL-9", "32Gb", "seed 7"} {
		if !strings.Contains(ce.Error(), want) {
			t.Errorf("Error() = %q missing %q", ce.Error(), want)
		}
	}
}

// panicHelperForStack exists to give the captured stack a recognizable
// frame name.
//
//go:noinline
func panicHelperForStack(v any) { panic(v) }

func TestRunBatchCancellation(t *testing.T) {
	// Cancel while the batch is in flight: started cells finish and keep
	// their results; unstarted cells are skipped; the context error is
	// reported.
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var started atomic.Int64
	const n = 64
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i].Run = func() (int, error) {
			started.Add(1)
			<-release
			return i, nil
		}
	}
	go func() {
		for started.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		// Give workers a moment to observe cancellation, then let the
		// in-flight cells complete.
		time.Sleep(5 * time.Millisecond)
		close(release)
	}()
	b, err := RunBatch(ctx, jobs, Options[int]{Parallelism: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if b == nil {
		t.Fatal("cancelled batch must still be returned")
	}
	done := 0
	for i := range jobs {
		if b.OK[i] {
			done++
			if b.Results[i] != i {
				t.Errorf("Results[%d] = %d, want %d", i, b.Results[i], i)
			}
		}
	}
	if done == 0 {
		t.Error("in-flight cells were not allowed to finish")
	}
	if b.Skipped == 0 {
		t.Error("cancellation skipped no cells")
	}
	if done+b.Skipped+len(b.Failed) != n {
		t.Errorf("accounting broken: done=%d skipped=%d failed=%d of %d",
			done, b.Skipped, len(b.Failed), n)
	}
}

func TestRunBatchOnDoneIndexed(t *testing.T) {
	// OnDone receives the batch index, so callers keying results by an
	// index-derived key never collide even when Cell metadata repeats
	// (e.g. the same mix at two retention temperatures).
	jobs := make([]Job[int], 32)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Cell: Cell{Mix: "same"}, Run: func() (int, error) { return i * 3, nil }}
	}
	got := map[int]int{}
	_, err := RunBatch(context.Background(), jobs, Options[int]{
		Parallelism: 8,
		OnDone:      func(i int, _ Cell, v int) { got[i] = v },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 32 {
		t.Fatalf("OnDone fired for %d cells, want 32", len(got))
	}
	for i, v := range got {
		if v != i*3 {
			t.Errorf("OnDone(%d) = %d, want %d", i, v, i*3)
		}
	}
}
