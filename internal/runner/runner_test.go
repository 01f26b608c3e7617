package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func job(i int) Job[int] {
	return Job[int]{
		Cell: Cell{Mix: fmt.Sprintf("WL-%d", i)},
		Run:  func() (int, error) { return i * i, nil },
	}
}

func TestRunIndexAddressedResults(t *testing.T) {
	for _, par := range []int{0, 1, 2, 8, 100} {
		jobs := make([]Job[int], 37)
		for i := range jobs {
			jobs[i] = job(i)
		}
		b, err := RunBatch(context.Background(), jobs, Options[int]{Parallelism: par, FailFast: true})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i, v := range b.Results {
			if v != i*i {
				t.Fatalf("par=%d: result[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	b, err := RunBatch[int](context.Background(), nil, Options[int]{Parallelism: 4, FailFast: true})
	if err != nil || len(b.Results) != 0 {
		t.Fatalf("empty run = %v, %v", b.Results, err)
	}
}

func TestRunReturnsLowestIndexedError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, par := range []int{1, 4} {
		jobs := make([]Job[int], 16)
		for i := range jobs {
			i := i
			jobs[i].Run = func() (int, error) {
				switch i {
				case 3:
					return 0, errLow
				case 11:
					return 0, errHigh
				default:
					return i, nil
				}
			}
		}
		_, err := RunBatch(context.Background(), jobs, Options[int]{Parallelism: par, FailFast: true})
		// Job 11 may be skipped after job 3 fails, but whenever both
		// fail the lower index must win — matching serial order.
		if !errors.Is(err, errLow) {
			t.Fatalf("par=%d: err = %v, want %v", par, err, errLow)
		}
	}
}

func TestRunSkipsAfterFailure(t *testing.T) {
	var started atomic.Int64
	jobs := make([]Job[int], 1000)
	for i := range jobs {
		i := i
		jobs[i].Run = func() (int, error) {
			started.Add(1)
			if i == 0 {
				return 0, errors.New("boom")
			}
			return i, nil
		}
	}
	if _, err := RunBatch(context.Background(), jobs, Options[int]{Parallelism: 2, FailFast: true}); err == nil {
		t.Fatal("expected error")
	}
	if n := started.Load(); n == 1000 {
		t.Error("failure did not short-circuit remaining jobs")
	}
}

func TestRunOnDoneSerializedAndComplete(t *testing.T) {
	// OnDone must fire exactly once per job from a single goroutine;
	// the callback deliberately touches shared state without locking —
	// the race detector verifies the serialization.
	jobs := make([]Job[int], 64)
	for i := range jobs {
		jobs[i] = job(i)
	}
	seen := map[string]int{}
	sum := 0
	_, err := RunBatch(context.Background(), jobs, Options[int]{Parallelism: 8, OnDone: func(_ int, c Cell, v int) {
		seen[c.Mix]++
		sum += v
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 64 {
		t.Fatalf("OnDone saw %d distinct cells, want 64", len(seen))
	}
	want := 0
	for i := 0; i < 64; i++ {
		want += i * i
	}
	if sum != want {
		t.Fatalf("OnDone value sum = %d, want %d", sum, want)
	}
}

func TestRunPanicIdentifiesCell(t *testing.T) {
	jobs := []Job[int]{
		job(0),
		{Cell: Cell{Mix: "WL-9", Density: "32Gb", Bundle: "codesign"},
			Run: func() (int, error) { panic("kaboom") }},
	}
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("job panic was swallowed")
		}
		msg := fmt.Sprint(p)
		for _, want := range []string{"WL-9", "kaboom"} {
			if !strings.Contains(msg, want) {
				t.Errorf("panic %q missing %q", msg, want)
			}
		}
	}()
	RunBatch(context.Background(), jobs, Options[int]{Parallelism: 2, FailFast: true})
}

func TestParallelismNormalization(t *testing.T) {
	if Parallelism(-1) < 1 || Parallelism(0) < 1 {
		t.Fatal("non-positive parallelism must map to at least 1 worker")
	}
	if Parallelism(7) != 7 {
		t.Fatal("explicit parallelism must pass through")
	}
}

func TestCellString(t *testing.T) {
	c := Cell{Mix: "WL-1", Density: "32Gb", Bundle: "perbank", Seed: 1}
	if got := c.String(); got != "WL-1/32Gb/perbank" {
		t.Fatalf("Cell.String() = %q", got)
	}
}

// TestCellStringNamesHotRegime: a high-temperature cell's label differs
// from the same cell's at normal temperature and names the regime, so
// fig3's 32 ms and 64 ms cells are told apart in failure tables,
// progress lines and timelines.
func TestCellStringNamesHotRegime(t *testing.T) {
	c := Cell{Mix: "WL-1", Density: "32Gb", Bundle: "perbank", Seed: 1}
	hot := c
	hot.Hot = true
	if got := hot.String(); got == c.String() || !strings.HasSuffix(got, "/hot") {
		t.Fatalf("hot Cell.String() = %q, want %q plus a /hot suffix", got, c.String())
	}
}
