package service

import (
	"sync"
	"sync/atomic"
	"time"
)

// Brownout thresholds. The mode engages when queued jobs reach
// brownoutHigh of QueueDepth and disengages once depth falls back to
// brownoutLow; the gap is the hysteresis band that keeps it from
// flapping at the threshold, and brownoutHold is the minimum time it
// stays engaged once entered. While engaged, fresh jobs with a
// negative priority (batch work) are rejected instead of queued,
// whatever their fidelity tier; default and interactive work is not.
const (
	brownoutHigh = 0.75
	brownoutLow  = 0.25
	brownoutHold = time.Second
)

// brownout is the hysteresis controller behind graceful degradation.
// While engaged, default-fidelity figure GETs are answered from the
// analytical approx tier (marked as degraded) and low-priority work is
// shed, trading fidelity for bounded latency instead of letting
// the queue grow until admission fails for everyone.
//
// State transitions happen in evaluate, which is called on every
// enqueue and from the resilience loop's periodic tick (so the mode
// also recovers when the overload ends and no further requests arrive
// to trigger a re-evaluation).
type brownout struct {
	now func() time.Time // injectable clock for deterministic tests

	mu      sync.Mutex
	engaged bool
	since   time.Time

	engagements atomic.Uint64 // times the mode engaged
	degraded    atomic.Uint64 // figure GETs downgraded to approx
	shed        atomic.Uint64 // low-priority jobs rejected
}

func newBrownout() *brownout {
	return &brownout{now: time.Now}
}

// evaluate feeds the controller the current queue shape and returns
// whether brownout is (now) engaged.
func (b *brownout) evaluate(depth, capacity int) bool {
	frac := float64(depth) / float64(capacity)
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case !b.engaged && frac >= brownoutHigh:
		b.engaged = true
		b.since = b.now()
		b.engagements.Add(1)
	case b.engaged && frac <= brownoutLow && b.now().Sub(b.since) >= brownoutHold:
		b.engaged = false
	}
	return b.engaged
}

// isEngaged reads the current mode without re-evaluating it.
func (b *brownout) isEngaged() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.engaged
}

// shouldShed reports whether a fresh job at priority should be
// rejected under the current mode. Approx jobs get no exemption: an
// approx fig4 still runs its bank-confined cells exact. The degraded
// figure GETs run at a non-negative priority, so they still pass.
func (b *brownout) shouldShed(priority int) bool {
	return priority < 0 && b.isEngaged()
}
