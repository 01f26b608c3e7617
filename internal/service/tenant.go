package service

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// tenantHeader names the request header that identifies a tenant;
// requests without it share the "default" tenant.
const tenantHeader = "X-Tenant"

// tenantOf extracts the requester's tenant identity.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(tenantHeader); t != "" {
		return t
	}
	return "default"
}

// TenantConfig sizes per-tenant admission. The zero value disables
// both limits, so single-user deployments behave exactly as before the
// knobs existed.
type TenantConfig struct {
	// Rate is each tenant's sustained admission rate in requests per
	// second (token-bucket refill). <= 0 disables rate limiting.
	Rate float64
	// Burst is the token bucket's capacity — how far above Rate a
	// tenant may briefly spike. Defaults to max(1, ceil(Rate)) when
	// rate limiting is enabled.
	Burst int
	// MaxInFlight caps how many of a tenant's jobs may be queued or
	// running at once. <= 0 disables the cap.
	MaxInFlight int
}

func (c TenantConfig) withDefaults() TenantConfig {
	if c.Rate > 0 && c.Burst <= 0 {
		c.Burst = int(math.Ceil(c.Rate))
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	return c
}

// admissionError is a structured admission rejection: which tenant hit
// which limit, and when retrying might succeed. The HTTP layer renders
// it as a 429 with a machine-readable body.
type admissionError struct {
	tenant     string
	reason     string // "rate" | "in_flight" | "brownout" | "queue_full"
	retryAfter int    // seconds; 0 means no estimate
}

func (e *admissionError) Error() string {
	return fmt.Sprintf("service: tenant %q rejected: %s limit", e.tenant, e.reason)
}

// tenantState is one tenant's live admission state.
type tenantState struct {
	tokens   float64 // current token-bucket fill
	last     time.Time
	inFlight int // queued + running jobs held by this tenant
}

// tenantAdmission is the per-tenant token-bucket + in-flight admission
// layer. It sits in front of the global queue-depth bound: a request
// must clear its tenant's rate bucket (per request) and in-flight cap
// (per fresh job) before it may contend for queue space, so one noisy
// tenant saturates its own budget instead of the daemon.
type tenantAdmission struct {
	cfg TenantConfig
	now func() time.Time // injectable clock for deterministic tests

	mu      sync.Mutex
	tenants map[string]*tenantState

	shedRate     atomic.Uint64
	shedInFlight atomic.Uint64
}

func newTenantAdmission(cfg TenantConfig) *tenantAdmission {
	return &tenantAdmission{
		cfg:     cfg.withDefaults(),
		now:     time.Now,
		tenants: map[string]*tenantState{},
	}
}

// state returns tenant's bucket, creating a full one on first sight.
func (a *tenantAdmission) state(tenant string) *tenantState {
	st, ok := a.tenants[tenant]
	if !ok {
		st = &tenantState{tokens: float64(a.cfg.Burst), last: a.now()}
		a.tenants[tenant] = st
	}
	return st
}

// admitRate charges one token from tenant's bucket, refilling first at
// cfg.Rate tokens/sec (capped at Burst). It is called once per
// enqueue-ing HTTP request, before any cache or dedup shortcut — rate
// limiting bounds request pressure, not just simulation work.
func (a *tenantAdmission) admitRate(tenant string) error {
	if a.cfg.Rate <= 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.state(tenant)
	now := a.now()
	st.tokens = math.Min(float64(a.cfg.Burst), st.tokens+now.Sub(st.last).Seconds()*a.cfg.Rate)
	st.last = now
	if st.tokens < 1 {
		a.shedRate.Add(1)
		return &admissionError{
			tenant:     tenant,
			reason:     "rate",
			retryAfter: int(math.Ceil((1 - st.tokens) / a.cfg.Rate)),
		}
	}
	st.tokens--
	return nil
}

// admitInFlight claims one slot of tenant's in-flight budget; the slot
// is owned by the fresh job being created and returned via release
// when it finishes.
func (a *tenantAdmission) admitInFlight(tenant string) error {
	if a.cfg.MaxInFlight <= 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.state(tenant)
	if st.inFlight >= a.cfg.MaxInFlight {
		a.shedInFlight.Add(1)
		return &admissionError{tenant: tenant, reason: "in_flight", retryAfter: 1}
	}
	st.inFlight++
	return nil
}

// hold claims an in-flight slot unconditionally — WAL recovery uses it
// for jobs that were already admitted by the previous process.
func (a *tenantAdmission) hold(tenant string) {
	a.mu.Lock()
	a.state(tenant).inFlight++
	a.mu.Unlock()
}

// release returns a previously claimed in-flight slot.
func (a *tenantAdmission) release(tenant string) {
	a.mu.Lock()
	if st, ok := a.tenants[tenant]; ok && st.inFlight > 0 {
		st.inFlight--
	}
	a.mu.Unlock()
}

// prune drops every tenant whose state a fresh one would equal: nothing
// in flight and a bucket refilled to Burst. The tenant header is chosen
// by the client, so without this each distinct value would hold state
// forever. No admission decision changes: a dropped tenant's next
// request finds the same full bucket it would have found anyway.
func (a *tenantAdmission) prune() {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	for tenant, st := range a.tenants {
		if st.inFlight == 0 && st.tokens+now.Sub(st.last).Seconds()*a.cfg.Rate >= float64(a.cfg.Burst) {
			delete(a.tenants, tenant)
		}
	}
}

// count reports how many tenants currently hold admission state.
func (a *tenantAdmission) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.tenants)
}
