package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"refsched/internal/harness"
)

// TestFigureFidelityApprox exercises the two-tier first-response path:
// the approx answer arrives immediately with its fidelity declared, the
// exact sweep runs behind it, and a later default request serves the
// exact result from cache.
func TestFigureFidelityApprox(t *testing.T) {
	_, ts := newTestServer(t, nil)

	resp, body := get(t, ts, "/v1/figures/fig10?fidelity=approx")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Fidelity"); got != "approx" {
		t.Fatalf("X-Fidelity = %q, want approx", got)
	}
	if !strings.Contains(string(body), "fig10") {
		t.Fatalf("approx body does not render fig10:\n%s", body)
	}
	exactID := resp.Header.Get("X-Refsched-Exact-Job")
	if exactID == "" {
		t.Fatal("no background exact job was enqueued")
	}

	// The background exact job completes and warms the cache for the
	// default (exact) path.
	deadline := time.Now().Add(30 * time.Second)
	for {
		jr, jbody := get(t, ts, "/v1/jobs/"+exactID)
		if jr.StatusCode != http.StatusOK {
			t.Fatalf("job status %d: %s", jr.StatusCode, jbody)
		}
		var st struct {
			State JobState `json:"state"`
		}
		if err := json.Unmarshal(jbody, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == JobDone {
			break
		}
		if st.State == JobFailed || st.State == JobQuarantined {
			t.Fatalf("background exact job ended %s", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("background exact job still %s", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp, body = get(t, ts, "/v1/figures/fig10")
	if got := resp.Header.Get("X-Fidelity"); got != "exact" {
		t.Fatalf("X-Fidelity = %q, want exact", got)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("X-Cache = %q, want hit (background job should have warmed the cache)", got)
	}
	if want := expectedFig10(t); string(body) != string(want) {
		t.Fatalf("exact-after-approx body diverged from reference:\n got: %s\nwant: %s", body, want)
	}
}

// TestFigureFidelityApproxCachedSeparately pins that the two tiers
// never share a cache entry: back-to-back approx requests hit the
// approx cache, not the exact one.
func TestFigureFidelityApproxCachedSeparately(t *testing.T) {
	_, ts := newTestServer(t, nil)
	_, first := get(t, ts, "/v1/figures/fig10?fidelity=approx")
	resp, second := get(t, ts, "/v1/figures/fig10?fidelity=approx")
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second approx request X-Cache = %q, want hit", got)
	}
	if string(first) != string(second) {
		t.Fatal("approx responses are not stable")
	}
}

func TestFigureFidelityBadValue(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, _ := get(t, ts, "/v1/figures/fig10?fidelity=fast")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestJobModeOverrideValidated: a bad mode in POST /v1/jobs params is a
// client error, not a failed job, and the body carries the harness's
// own message.
func TestJobModeOverrideValidated(t *testing.T) {
	_, ts := newTestServer(t, nil)
	mode := "aprox"
	resp, out := postJob(t, ts, Request{Figure: "fig10", Params: &ParamOverrides{Mode: &mode}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if want := harness.CheckMode(mode).Error(); out["error"] != want {
		t.Fatalf("error = %q, want %q", out["error"], want)
	}
}

// TestApproxFig4JobCheckpoints: an approx fig4 runs its bank-confined
// cells exact, under the job's own store. They cross checkpoint
// boundaries, which the watchdog counts as progress and where a
// preemption lands; a cell answered from the process-wide store, which
// has no poll, would cross none.
func TestApproxFig4JobCheckpoints(t *testing.T) {
	s, ts := newTestServer(t, nil)
	mode := harness.ModeApprox
	resp, out := postJob(t, ts, Request{Figure: "fig4", Params: &ParamOverrides{Mode: &mode}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	id := out["id"].(string)
	j := s.getJob(id)
	if j == nil {
		t.Fatal("job not found")
	}
	waitJobState(t, ts, id, JobDone)
	if n := j.boundaries.Load(); n == 0 {
		t.Fatal("approx fig4's exact cells crossed no checkpoint boundary")
	}
}

// TestJobThroughputSample unit-tests the per-running-job engine
// throughput arithmetic without racing a live sweep.
func TestJobThroughputSample(t *testing.T) {
	j := &job{id: "job-000001", figure: "fig10"}
	if _, ok := j.throughput(); ok {
		t.Fatal("queued job reported throughput")
	}
	j.state = JobRunning
	j.started = time.Now().Add(-2 * time.Second)
	j.cellsDone, j.cellsTotal = 3, 9
	j.engineEvents.Add(10_000_000)
	sample, ok := j.throughput()
	if !ok {
		t.Fatal("running job reported no throughput")
	}
	if sample.Events != 10_000_000 || sample.CellsDone != 3 || sample.CellsTotal != 9 {
		t.Fatalf("sample = %+v", sample)
	}
	// ~5M events/sec after 2s; allow generous slack for test scheduling.
	if sample.EventsPerSec < 1_000_000 || sample.EventsPerSec > 6_000_000 {
		t.Fatalf("events/sec = %v, want ~5M", sample.EventsPerSec)
	}
}

// TestThroughputGaugeExposed: after serving a figure, both /metricsz
// (per-figure gauge family) and /statsz (running_jobs sample list)
// carry the engine-throughput instrumentation; with the daemon idle the
// gauge reads 0 and the sample list is empty.
func TestThroughputGaugeExposed(t *testing.T) {
	s, ts := newTestServer(t, nil)
	if resp, _ := get(t, ts, "/v1/figures/fig10"); resp.StatusCode != http.StatusOK {
		t.Fatalf("figure status %d", resp.StatusCode)
	}
	_, body := get(t, ts, "/metricsz")
	want := fmt.Sprintf(`refschedd_figure_engine_events_per_sec{figure=%q} 0`, "fig10")
	if !strings.Contains(string(body), want) {
		t.Fatalf("/metricsz missing idle throughput gauge %q:\n%s", want, body)
	}
	if st := s.StatsSnapshot(); len(st.RunningJobs) != 0 {
		t.Fatalf("idle daemon reports running jobs: %+v", st.RunningJobs)
	}
}
