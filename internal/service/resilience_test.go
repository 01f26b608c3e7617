package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"refsched/internal/chaos"
	"refsched/internal/harness"
	"refsched/internal/stats"
)

func cellReq(seed uint64) Request {
	return Request{
		Cell:   &CellSpec{Mix: "WL-6", Density: "8Gb", Bundle: "allbank"},
		Params: &ParamOverrides{Seed: &seed},
	}
}

// postJobHdr is postJob with extra request headers (tenant tests).
func postJobHdr(t *testing.T, ts *httptest.Server, req Request, hdr map[string]string) (*http.Response, map[string]any) {
	t.Helper()
	raw, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

// TestRetryAfterEstimator pins the backoff estimate at its edges: no
// latency history yet, a small backlog, and a fully saturated backlog
// that must clamp rather than tell clients to come back in days.
func TestRetryAfterEstimator(t *testing.T) {
	s := &Server{queue: newJobQueue(128), cfg: Config{Workers: 2}, figs: map[string]*figureMetrics{}}
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("empty history, empty queue: retry = %d, want 1", got)
	}
	for i := 0; i < 4; i++ {
		if err := s.queue.push(&job{done: make(chan struct{})}); err != nil {
			t.Fatal(err)
		}
	}
	// No history: assume 1s per job, 4 queued across 2 workers → 2s + 1.
	if got := s.retryAfterSeconds(); got != 3 {
		t.Fatalf("empty history, 4 queued: retry = %d, want 3", got)
	}
	// Full saturation: absurdly slow jobs and a deep backlog must clamp
	// at the 600s ceiling.
	fm := &figureMetrics{lat: stats.NewHistogram(1, 64), skips: stats.NewHistogram(1, 64)}
	fm.lat.Add(8_000_000) // one 8000s observation, in ms
	s.figs["fig10"] = fm
	s.cfg.Workers = 1
	for i := 0; i < 96; i++ {
		if err := s.queue.push(&job{done: make(chan struct{})}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.retryAfterSeconds(); got != 600 {
		t.Fatalf("saturated: retry = %d, want clamp 600", got)
	}
}

// TestApproxCoversAllFigures locks the invariant brownout relies on:
// every individually addressable figure target can be served from the
// analytical approx tier. If a new figure breaks this, degraded mode
// would 500 exactly when the daemon is overloaded.
func TestApproxCoversAllFigures(t *testing.T) {
	for _, name := range harness.FigureNames() {
		p := tinyParams()
		p.Mode = harness.ModeApprox
		res, err := harness.RunFigure(name, p)
		if err != nil {
			t.Errorf("%s: approx run failed: %v", name, err)
			continue
		}
		if len(res) == 0 || res[0] == nil {
			t.Errorf("%s: approx run returned no results", name)
		}
	}
}

// TestDeadlineShedsQueuedJob: a job whose deadline passes while it
// waits in the queue is shed as JobExpired before burning a worker.
func TestDeadlineShedsQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Params.Chaos = chaos.New(chaos.Config{Seed: 1, Frac: 1, Mode: chaos.ModeStall, Stall: 400 * time.Millisecond})
	})

	respA, outA := postJob(t, ts, cellReq(1)) // occupies the only worker
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("job A status = %d", respA.StatusCode)
	}
	reqB := cellReq(2)
	reqB.DeadlineMS = 50
	respB, outB := postJob(t, ts, reqB)
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("job B status = %d", respB.StatusCode)
	}

	stB := waitJobState(t, ts, outB["id"].(string), JobExpired)
	if stB.DeadlineAt == nil {
		t.Fatal("expired job status should carry its deadline")
	}
	if !strings.Contains(stB.Error, "queue") {
		t.Fatalf("expired-in-queue error = %q, want mention of queue wait", stB.Error)
	}
	waitJobState(t, ts, outA["id"].(string), JobDone)

	_, body := get(t, ts, "/statsz")
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Jobs.Expired < 1 {
		t.Fatalf("jobs.expired = %d, want >= 1", st.Jobs.Expired)
	}
}

// TestDeadlineExpiresMidRun: a deadline that fires mid-run must
// hard-cancel the engine promptly (through the run loop's leg-boundary poll
// and the interruptible chaos stall), not wait out the work.
func TestDeadlineExpiresMidRun(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Params.Chaos = chaos.New(chaos.Config{Seed: 1, Frac: 1, Mode: chaos.ModeStall, Stall: 10 * time.Second})
	})

	req := cellReq(1)
	req.DeadlineMS = 300
	_, out := postJob(t, ts, req)
	t0 := time.Now()
	st := waitJobState(t, ts, out["id"].(string), JobExpired)
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("mid-run expiry took %s; the 10s stall was not interrupted", elapsed)
	}
	if !strings.Contains(st.Error, "deadline expired") {
		t.Fatalf("error = %q, want deadline expiry", st.Error)
	}
}

// TestDeadlineValidation: negative deadlines are a client error.
func TestDeadlineValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	req := cellReq(1)
	req.DeadlineMS = -5
	resp, _ := postJob(t, ts, req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative deadline status = %d, want 400", resp.StatusCode)
	}
}

// TestTenantRateLimit: per-tenant token buckets reject the over-budget
// tenant with a structured 429 while other tenants keep flowing.
func TestTenantRateLimit(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Tenant = TenantConfig{Rate: 0.5, Burst: 2}
	})

	// The second request may dedup or hit cache (200 rather than 202);
	// either way it spends a rate token.
	for i := 0; i < 2; i++ {
		if resp, out := postJob(t, ts, cellReq(1)); resp.StatusCode >= http.StatusBadRequest {
			t.Fatalf("request %d status = %d (%v)", i, resp.StatusCode, out)
		}
	}
	resp, out := postJob(t, ts, cellReq(1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request status = %d, want 429", resp.StatusCode)
	}
	if out["reason"] != "rate" || out["tenant"] != "default" {
		t.Fatalf("429 body = %v, want reason=rate tenant=default", out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	// A different tenant has its own bucket.
	if resp, out := postJobHdr(t, ts, cellReq(1), map[string]string{tenantHeader: "other"}); resp.StatusCode >= http.StatusBadRequest {
		t.Fatalf("other-tenant status = %d (%v)", resp.StatusCode, out)
	}
}

// TestTenantInFlightLimit: the in-flight cap bounds how much queue a
// single tenant can hold, releases on completion, and is per-tenant.
func TestTenantInFlightLimit(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Tenant = TenantConfig{MaxInFlight: 1}
		c.Params.Chaos = chaos.New(chaos.Config{Seed: 1, Frac: 1, Mode: chaos.ModeStall, Stall: 300 * time.Millisecond})
	})

	respA, outA := postJob(t, ts, cellReq(1))
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("job A status = %d", respA.StatusCode)
	}
	respB, outB := postJob(t, ts, cellReq(2))
	if respB.StatusCode != http.StatusTooManyRequests || outB["reason"] != "in_flight" {
		t.Fatalf("job B = %d %v, want 429 reason=in_flight", respB.StatusCode, outB)
	}
	// Coalescing onto A's in-flight job costs no slot.
	if resp, _ := postJob(t, ts, cellReq(1)); resp.StatusCode >= http.StatusBadRequest {
		t.Fatalf("dedup onto job A status = %d", resp.StatusCode)
	}
	// Another tenant is unaffected.
	if resp, out := postJobHdr(t, ts, cellReq(3), map[string]string{tenantHeader: "other"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other-tenant status = %d (%v)", resp.StatusCode, out)
	}

	waitJobState(t, ts, outA["id"].(string), JobDone)
	// The slot frees when A finishes (release is just after the status
	// flips, so poll briefly).
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, out := postJob(t, ts, cellReq(4))
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never released: %d %v", resp.StatusCode, out)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBrownoutHysteresis drives the controller with an injected clock:
// engage at HighFrac, hold through MinHold even once depth drops, stay
// put inside the band, disengage only below LowFrac after the hold.
func TestBrownoutHysteresis(t *testing.T) {
	b := newBrownout(BrownoutConfig{HighFrac: 0.75, LowFrac: 0.25, MinHold: time.Second})
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }

	if b.evaluate(2, 4) {
		t.Fatal("engaged below HighFrac")
	}
	if !b.evaluate(3, 4) {
		t.Fatal("did not engage at HighFrac")
	}
	if !b.evaluate(1, 4) {
		t.Fatal("disengaged before MinHold elapsed")
	}
	now = now.Add(2 * time.Second)
	if !b.evaluate(2, 4) {
		t.Fatal("disengaged inside the hysteresis band")
	}
	if b.evaluate(1, 4) {
		t.Fatal("did not disengage below LowFrac after MinHold")
	}
	if b.evaluate(2, 4) {
		t.Fatal("re-engaged below HighFrac")
	}
	if got := b.engagements.Load(); got != 1 {
		t.Fatalf("engagements = %d, want 1", got)
	}
}

// TestBrownoutDegradesAndRecovers is the end-to-end brownout story:
// queue pressure engages the mode, low-priority exact work is shed
// with reason "brownout", a default-fidelity figure GET is served
// degraded from the approx tier, and once the queue drains the
// resilience loop disengages the mode on its own.
func TestBrownoutDegradesAndRecovers(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 8
		c.Brownout = BrownoutConfig{HighFrac: 0.5, LowFrac: 0.25, MinHold: 10 * time.Millisecond}
		c.Watchdog = WatchdogConfig{Interval: 20 * time.Millisecond}
		c.Params.Chaos = chaos.New(chaos.Config{Seed: 1, Frac: 1, Mode: chaos.ModeStall, Stall: 200 * time.Millisecond})
	})

	// Fillers sit at priority 0 — above the shed line — so the POST
	// whose own evaluate() crosses HighFrac is still admitted.
	var ids []string
	for i := uint64(1); i <= 6; i++ {
		resp, out := postJob(t, ts, cellReq(i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("filler %d status = %d (%v)", i, resp.StatusCode, out)
		}
		ids = append(ids, out["id"].(string))
	}
	if !s.brown.isEngaged() {
		t.Fatal("brownout not engaged at 4/8 queued")
	}

	// Fresh low-priority exact work is shed while engaged.
	shedReq := cellReq(7)
	shedReq.Priority = -1
	resp, out := postJob(t, ts, shedReq)
	if resp.StatusCode != http.StatusTooManyRequests || out["reason"] != "brownout" {
		t.Fatalf("shed candidate = %d %v, want 429 reason=brownout", resp.StatusCode, out)
	}

	// A default-fidelity figure GET is answered degraded from the
	// approx tier instead of joining the queue for an exact sweep.
	figResp, figBody := get(t, ts, "/v1/figures/fig10")
	if figResp.StatusCode != http.StatusOK {
		t.Fatalf("degraded figure GET = %d: %s", figResp.StatusCode, figBody)
	}
	if got := figResp.Header.Get("X-Fidelity"); got != harness.ModeApprox {
		t.Fatalf("X-Fidelity = %q, want approx", got)
	}
	if figResp.Header.Get("Degraded") != "true" {
		t.Fatal("degraded response missing Degraded: true")
	}
	if figResp.Header.Get("X-Refsched-Exact-Job") != "" {
		t.Fatal("degraded GET must not enqueue background exact work")
	}
	if len(figBody) == 0 {
		t.Fatal("degraded figure GET returned empty body")
	}

	// Drain, then the resilience loop disengages without any enqueue.
	for _, id := range ids {
		waitJobState(t, ts, id, JobDone)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.brown.isEngaged() {
		if time.Now().After(deadline) {
			t.Fatal("brownout never disengaged after drain")
		}
		time.Sleep(20 * time.Millisecond)
	}

	_, body := get(t, ts, "/statsz")
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Resilience.BrownoutEngagements < 1 || st.Resilience.ShedBrownout < 1 || st.Resilience.BrownoutDegraded < 1 {
		t.Fatalf("resilience counters = %+v, want engagements/shed/degraded all >= 1", st.Resilience)
	}
	if st.Resilience.BrownoutEngaged {
		t.Fatal("statsz still reports brownout engaged")
	}
}

// TestWatchdogKillsStalledJob: a job whose engine stops making
// progress (deterministic 30s chaos stall) is killed within the stall
// bound plus a few scan intervals, not after the stall ends.
func TestWatchdogKillsStalledJob(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.Watchdog = WatchdogConfig{Interval: 25 * time.Millisecond, Stall: 150 * time.Millisecond}
		c.Params.Chaos = chaos.New(chaos.Config{Seed: 1, Frac: 1, Mode: chaos.ModeStall, Stall: 30 * time.Second})
	})

	_, out := postJob(t, ts, cellReq(1))
	t0 := time.Now()
	st := waitJobState(t, ts, out["id"].(string), JobFailed)
	if elapsed := time.Since(t0); elapsed > 10*time.Second {
		t.Fatalf("watchdog kill took %s; the 30s stall was not interrupted", elapsed)
	}
	if !strings.Contains(st.Error, "watchdog") {
		t.Fatalf("error = %q, want watchdog kill", st.Error)
	}

	_, body := get(t, ts, "/statsz")
	var sz Stats
	if err := json.Unmarshal(body, &sz); err != nil {
		t.Fatal(err)
	}
	if sz.Resilience.WatchdogKills < 1 {
		t.Fatalf("watchdog_kills = %d, want >= 1", sz.Resilience.WatchdogKills)
	}
}
