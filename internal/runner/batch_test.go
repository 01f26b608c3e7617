package runner

import (
	"context"
	"errors"
	"fmt"
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
		if ce.Attempts != 1 {
			t.Errorf("Failed[%d].Attempts = %d, want 1 (error was not transient)", k, ce.Attempts)
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

func TestRunBatchTransientRetrySameResult(t *testing.T) {
	// A transient failure is retried with the identical closure, so the
	// eventual result is exactly what a clean run would have produced.
	var firstTry atomic.Int64
	jobs := make([]Job[int], 8)
	attempts := make([]atomic.Int64, 8)
	for i := range jobs {
		i := i
		jobs[i].Run = func() (int, error) {
			if attempts[i].Add(1) == 1 && i%2 == 0 {
				firstTry.Add(1)
				return 0, MarkTransient(errors.New("spurious"))
			}
			return 100 + i, nil
		}
	}
	b, err := RunBatch(context.Background(), jobs, Options[int]{Parallelism: 3, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Failed) != 0 {
		t.Fatalf("transient failures within budget must not quarantine: %v", b.Failed)
	}
	if b.Retried != int(firstTry.Load()) {
		t.Errorf("Retried = %d, want %d", b.Retried, firstTry.Load())
	}
	for i := range jobs {
		if b.Results[i] != 100+i {
			t.Errorf("Results[%d] = %d, want %d", i, b.Results[i], 100+i)
		}
	}
}

func TestRunBatchRetriesExhausted(t *testing.T) {
	var attempts atomic.Int64
	jobs := []Job[int]{{
		Cell: Cell{Mix: "WL-2"},
		Run: func() (int, error) {
			attempts.Add(1)
			return 0, MarkTransient(errors.New("always"))
		},
	}}
	b, err := RunBatch(context.Background(), jobs, Options[int]{Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("executions = %d, want 3 (1 + 2 retries)", got)
	}
	if len(b.Failed) != 1 || b.Failed[0].Attempts != 3 {
		t.Fatalf("Failed = %v, want one cell with Attempts=3", b.Failed)
	}
	if !IsTransient(b.Failed[0].Err) {
		t.Error("quarantine record lost the transient marker")
	}
}

func TestRunBatchNonTransientNotRetried(t *testing.T) {
	var attempts atomic.Int64
	jobs := []Job[int]{{Run: func() (int, error) {
		attempts.Add(1)
		return 0, errors.New("deterministic model error")
	}}}
	b, _ := RunBatch(context.Background(), jobs, Options[int]{Retries: 5})
	if attempts.Load() != 1 {
		t.Errorf("executions = %d, want 1: plain errors must not retry", attempts.Load())
	}
	if b.Retried != 0 {
		t.Errorf("Retried = %d, want 0", b.Retried)
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

func TestRunBatchFailFast(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	jobs := make([]Job[int], 1000)
	for i := range jobs {
		i := i
		jobs[i].Run = func() (int, error) {
			started.Add(1)
			if i == 1 {
				return 0, boom
			}
			return i, nil
		}
	}
	b, err := RunBatch(context.Background(), jobs, Options[int]{Parallelism: 2, FailFast: true})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Index != 1 {
		t.Fatalf("err = %v, want *CellError for index 1", err)
	}
	if started.Load() == 1000 {
		t.Error("fail-fast did not short-circuit the batch")
	}
	if b == nil || b.Skipped == 0 {
		t.Error("fail-fast batch must report skipped cells")
	}
}

func TestRunBatchOnDoneIndexed(t *testing.T) {
	// OnDone receives the batch index, so callers journaling by an
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

func TestMarkTransient(t *testing.T) {
	base := errors.New("base")
	if MarkTransient(nil) != nil {
		t.Error("MarkTransient(nil) != nil")
	}
	m := MarkTransient(base)
	if !IsTransient(m) {
		t.Error("IsTransient(MarkTransient(err)) = false")
	}
	if !errors.Is(m, base) {
		t.Error("transient wrapper must unwrap to the original error")
	}
	if IsTransient(base) {
		t.Error("unmarked error reported transient")
	}
	if IsTransient(nil) {
		t.Error("IsTransient(nil) = true")
	}
	// The marker survives further wrapping.
	if !IsTransient(fmt.Errorf("wrapped: %w", m)) {
		t.Error("transient marker lost through wrapping")
	}
}
