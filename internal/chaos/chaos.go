// Package chaos is a deterministic, seeded fault injector for the
// experiment pipeline. It wraps a sweep cell's closure and makes a
// configurable fraction of cells fail — by returned error, by panic, or
// by stalling before succeeding — so tests can prove that quarantine,
// deadlines, and journaled resume actually deliver the failure
// semantics they promise.
//
// Every decision is a pure function of (injector seed, cell key), so a
// chaos run is as reproducible as the simulation itself: the same seed
// faults the same cells in the same way regardless of worker count or
// completion order.
package chaos

import (
	"context"
	"fmt"
	"time"
)

// Mode selects how a faulted cell fails.
type Mode string

const (
	// ModeError returns an *InjectedError.
	ModeError Mode = "error"
	// ModePanic panics with a *chaos.InjectedPanic value.
	ModePanic Mode = "panic"
	// ModeStall sleeps for Stall before running the cell normally. It
	// models a slow, not broken, cell — used to hold a batch open while
	// a test cancels it.
	ModeStall Mode = "stall"
	// ModeMixed picks error or panic deterministically per faulted
	// cell.
	ModeMixed Mode = "mixed"
)

// ParseMode validates a -chaos-mode flag value.
func ParseMode(s string) (Mode, error) {
	switch m := Mode(s); m {
	case ModeError, ModePanic, ModeStall, ModeMixed:
		return m, nil
	default:
		return "", fmt.Errorf("chaos: unknown mode %q (want error|panic|stall|mixed)", s)
	}
}

// Config shapes an Injector.
type Config struct {
	// Seed drives every injection decision.
	Seed uint64
	// Frac is the fraction of cells faulted, in [0, 1].
	Frac float64
	// Mode selects the failure shape (default ModeError).
	Mode Mode
	// Stall is the ModeStall sleep (default 10ms).
	Stall time.Duration
}

// InjectedError is the typed error returned by faulted cells.
type InjectedError struct {
	Key string
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("chaos: injected fault in %q", e.Key)
}

// InjectedPanic is the typed panic value thrown by ModePanic cells, so
// quarantine reports can tell injected chaos from real bugs.
type InjectedPanic struct {
	Key string
}

// Error lets the recovered value read naturally in failure summaries.
func (p *InjectedPanic) Error() string {
	return fmt.Sprintf("chaos: injected panic in %q", p.Key)
}

// Injector decides, per cell key, whether and how to inject a fault.
// It is immutable after construction, so it is safe for concurrent use
// by the worker pool.
type Injector struct {
	cfg Config
}

// New builds an injector; a nil return (Frac <= 0) means chaos is off
// and callers can skip wrapping.
func New(cfg Config) *Injector {
	if cfg.Frac <= 0 {
		return nil
	}
	if cfg.Mode == "" {
		cfg.Mode = ModeError
	}
	if cfg.Stall <= 0 {
		cfg.Stall = 10 * time.Millisecond
	}
	return &Injector{cfg: cfg}
}

// hash is SplitMix64 over the seed and key — a stateless, platform-
// stable stream so fault placement is reproducible.
func hash(seed uint64, key string) uint64 {
	x := seed ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(key); i++ {
		x = (x ^ uint64(key[i])) * 0xbf58476d1ce4e5b9
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// Faulted reports whether the injector will fault the cell with this
// key, and with which mode.
func (in *Injector) Faulted(key string) (Mode, bool) {
	if in == nil {
		return "", false
	}
	h := hash(in.cfg.Seed, key)
	// Top 53 bits → uniform [0,1).
	if float64(h>>11)/(1<<53) >= in.cfg.Frac {
		return "", false
	}
	mode := in.cfg.Mode
	if mode == ModeMixed {
		mode = []Mode{ModeError, ModePanic}[(h>>1)%2]
	}
	return mode, true
}

// WrapContext returns run with the injector's fault (if any) for key
// applied in front of it. The wrapped closure stays deterministic: a
// cell that is not faulted runs the original closure unchanged. A
// stalled cell sleeps on a timer but aborts early — returning the
// context error instead of the cell's result — when ctx ends. That is
// what lets a watchdog or deadline terminate a chaos-stalled job
// within its bound instead of waiting out the full stall. A nil ctx
// stalls uninterruptibly. Fault placement is unchanged: ctx affects
// only how a stall ends, never which cells fault.
func WrapContext[T any](in *Injector, key string, ctx context.Context, run func() (T, error)) func() (T, error) {
	if in == nil {
		return run
	}
	mode, ok := in.Faulted(key)
	if !ok {
		return run
	}
	return func() (T, error) {
		var zero T
		switch mode {
		case ModePanic:
			panic(&InjectedPanic{Key: key})
		case ModeError:
			return zero, &InjectedError{Key: key}
		default: // ModeStall
			if ctx == nil {
				time.Sleep(in.cfg.Stall)
				return run()
			}
			t := time.NewTimer(in.cfg.Stall)
			defer t.Stop()
			select {
			case <-t.C:
				return run()
			case <-ctx.Done():
				return zero, fmt.Errorf("chaos: stall in %q interrupted: %w", key, ctx.Err())
			}
		}
	}
}
