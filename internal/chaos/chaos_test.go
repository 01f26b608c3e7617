package chaos

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"refsched/internal/runner"
)

func TestParseMode(t *testing.T) {
	for _, ok := range []string{"error", "panic", "stall", "mixed"} {
		if _, err := ParseMode(ok); err != nil {
			t.Errorf("ParseMode(%q) = %v", ok, err)
		}
	}
	for _, bad := range []string{"", "transient", "Error", "crash", "none"} {
		if _, err := ParseMode(bad); err == nil {
			t.Errorf("ParseMode(%q) accepted", bad)
		}
	}
}

func TestNewOffWhenFracZero(t *testing.T) {
	if New(Config{Seed: 1, Frac: 0}) != nil {
		t.Error("Frac=0 must disable chaos")
	}
	var in *Injector
	if _, ok := in.Faulted("k"); ok {
		t.Error("nil injector faulted a cell")
	}
	run := WrapContext(in, "k", nil, func() (int, error) { return 7, nil })
	if v, err := run(); v != 7 || err != nil {
		t.Error("nil injector must pass the closure through unchanged")
	}
}

func TestFaultPlacementDeterministic(t *testing.T) {
	keys := make([]string, 500)
	for i := range keys {
		keys[i] = fmt.Sprintf("fig10|WL-%d|32Gb|codesign", i)
	}
	a := New(Config{Seed: 42, Frac: 0.2})
	b := New(Config{Seed: 42, Frac: 0.2})
	faulted := 0
	for _, k := range keys {
		ma, oka := a.Faulted(k)
		mb, okb := b.Faulted(k)
		if oka != okb || ma != mb {
			t.Fatalf("same seed diverged on %q", k)
		}
		if oka {
			faulted++
		}
	}
	// 500 draws at p=0.2: expect ~100; a wide tolerance still catches a
	// broken hash.
	if faulted < 60 || faulted > 150 {
		t.Errorf("faulted %d/500 cells at Frac=0.2", faulted)
	}
	// A different seed must move the faults.
	c := New(Config{Seed: 43, Frac: 0.2})
	moved := 0
	for _, k := range keys {
		_, oka := a.Faulted(k)
		_, okc := c.Faulted(k)
		if oka != okc {
			moved++
		}
	}
	if moved == 0 {
		t.Error("changing the seed changed no fault placements")
	}
}

func TestWrapErrorModePermanent(t *testing.T) {
	in := New(Config{Seed: 1, Frac: 1, Mode: ModeError})
	run := WrapContext(in, "cell", nil, func() (int, error) { return 1, nil })
	for i := 0; i < 3; i++ {
		var ie *InjectedError
		if _, err := run(); !errors.As(err, &ie) || ie.Key != "cell" {
			t.Fatalf("ModeError call %d = %v, want *InjectedError{Key: cell}", i+1, err)
		}
	}
}

func TestWrapPanicMode(t *testing.T) {
	in := New(Config{Seed: 1, Frac: 1, Mode: ModePanic})
	run := WrapContext(in, "cell", nil, func() (int, error) { return 1, nil })
	defer func() {
		p := recover()
		ip, ok := p.(*InjectedPanic)
		if !ok || ip.Key != "cell" {
			t.Fatalf("panic value = %#v, want *InjectedPanic{Key: cell}", p)
		}
	}()
	run()
	t.Fatal("ModePanic did not panic")
}

func TestChaosWithRunnerQuarantinesPermanent(t *testing.T) {
	// Permanent chaos (error + panic via mixed mode) must be quarantined
	// with the rest of the batch intact.
	in := New(Config{Seed: 3, Frac: 0.3, Mode: ModeMixed})
	const n = 50
	jobs := make([]runner.Job[int], n)
	wantFail := 0
	for i := range jobs {
		i := i
		key := fmt.Sprintf("cell-%d", i)
		if _, ok := in.Faulted(key); ok {
			wantFail++
		}
		jobs[i] = runner.Job[int]{
			Cell: runner.Cell{Mix: key},
			Run:  WrapContext(in, key, nil, func() (int, error) { return i, nil }),
		}
	}
	if wantFail == 0 {
		t.Fatal("test vacuous: no cells faulted")
	}
	b, err := runner.RunBatch(context.Background(), jobs, runner.Options[int]{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Failed) != wantFail {
		t.Fatalf("Failed = %d cells, want %d", len(b.Failed), wantFail)
	}
	for _, ce := range b.Failed {
		if ce.PanicValue != nil {
			if _, ok := ce.PanicValue.(*InjectedPanic); !ok {
				t.Errorf("cell %d panic value = %#v, want *InjectedPanic", ce.Index, ce.PanicValue)
			}
			continue
		}
		var ie *InjectedError
		if !errors.As(ce.Err, &ie) {
			t.Errorf("cell %d error = %v, want *InjectedError in chain", ce.Index, ce.Err)
		}
	}
	healthy := 0
	for i := range jobs {
		if b.OK[i] {
			healthy++
			if b.Results[i] != i {
				t.Errorf("Results[%d] corrupted", i)
			}
		}
	}
	if healthy != n-wantFail {
		t.Errorf("healthy = %d, want %d", healthy, n-wantFail)
	}
}
