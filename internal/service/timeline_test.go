package service

import (
	"net/http"
	"strings"
	"testing"

	"refsched/internal/timeline"
)

// TestJobTimelineEndpoint runs a small cell job and checks the
// downloadable timeline: valid Chrome trace-event JSON, per-track
// monotone, with the queue-wait span, the request span, per-cell
// simulation spans, and every span correlated to the creating
// request's ID.
func TestJobTimelineEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)

	resp, out := postJob(t, ts, Request{
		Cell: &CellSpec{Mix: "WL-6", Density: "32Gb", Bundle: "codesign"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("enqueue status = %d (%v)", resp.StatusCode, out)
	}
	id := out["id"].(string)
	waitJobState(t, ts, id, JobDone)

	tresp, tbody := get(t, ts, "/v1/jobs/"+id+"/timeline")
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("timeline status = %d: %s", tresp.StatusCode, tbody)
	}
	if ct := tresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("timeline content-type = %q", ct)
	}
	events, err := timeline.Decode(strings.NewReader(string(tbody)))
	if err != nil {
		t.Fatalf("timeline does not decode: %v", err)
	}
	if err := timeline.CheckMonotone(events); err != nil {
		t.Fatal(err)
	}

	var queued, request, run, cells, admitted int
	reqIDs := map[string]bool{}
	for _, e := range events {
		if rid, ok := e.Args["req"].(string); ok {
			reqIDs[rid] = true
		}
		switch {
		case e.Name == "queued":
			queued++
		case e.Ph == "X" && strings.HasPrefix(e.Name, "POST /v1/jobs"):
			request++
		case e.Ph == "X" && strings.HasPrefix(e.Name, "run "):
			run++
		case e.Ph == "X" && e.Pid == tlPidCells:
			cells++
		case e.Name == "admitted":
			admitted++
		}
	}
	if queued != 1 {
		t.Errorf("queued spans = %d, want 1", queued)
	}
	if request != 1 {
		t.Errorf("request spans = %d, want 1", request)
	}
	if run != 1 {
		t.Errorf("run spans = %d, want 1", run)
	}
	if cells != 1 {
		t.Errorf("cell spans = %d, want 1", cells)
	}
	if admitted != 1 {
		t.Errorf("gate-admission instants = %d, want 1", admitted)
	}
	// Every tagged event must carry the same (single) request ID, and
	// it must look like the middleware's req-NNNNNN scheme.
	if len(reqIDs) != 1 {
		t.Fatalf("request IDs on timeline = %v, want exactly one", reqIDs)
	}
	for rid := range reqIDs {
		if !strings.HasPrefix(rid, "req-") {
			t.Fatalf("request ID %q does not match req-*", rid)
		}
	}

	// Unknown job → 404.
	r404, _ := get(t, ts, "/v1/jobs/job-999999/timeline")
	if r404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job timeline status = %d", r404.StatusCode)
	}
}

// TestJobTimelineGateSerializesCells: with one gate slot, a figure job
// whose sweep has four workers never has two cells in flight — each
// cell takes its slot before its timeline lane — so the job's timeline
// uses a single cell lane, and every cell is admitted through the gate.
func TestJobTimelineGateSerializesCells(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.CellSlots = 1
		c.Params.Parallelism = 4
	})
	resp, out := postJob(t, ts, Request{Figure: "fig10"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("enqueue status = %d (%v)", resp.StatusCode, out)
	}
	id := out["id"].(string)
	waitJobState(t, ts, id, JobDone)

	_, tbody := get(t, ts, "/v1/jobs/"+id+"/timeline")
	events, err := timeline.Decode(strings.NewReader(string(tbody)))
	if err != nil {
		t.Fatal(err)
	}
	lanes := map[int32]bool{}
	var cells, admitted int
	for _, e := range events {
		switch {
		case e.Ph == "X" && e.Pid == tlPidCells:
			cells++
			lanes[e.Tid] = true
		case e.Name == "admitted":
			admitted++
		}
	}
	// fig10 over one mix: 3 densities × 3 bundles.
	if cells != 9 || admitted != cells {
		t.Fatalf("%d cell spans and %d gate admissions, want 9 of each", cells, admitted)
	}
	if len(lanes) != 1 {
		t.Fatalf("cells ran on %d lanes, want 1 under a 1-slot gate", len(lanes))
	}
}

// TestJobTimelineCacheHit: a repeat of an already-cached cell records a
// cache-hit instant instead of simulation spans.
func TestJobTimelineCacheHit(t *testing.T) {
	_, ts := newTestServer(t, nil)

	cell := &CellSpec{Mix: "WL-6", Density: "16Gb", Bundle: "allbank"}
	_, out := postJob(t, ts, Request{Cell: cell})
	waitJobState(t, ts, out["id"].(string), JobDone)

	_, out2 := postJob(t, ts, Request{Cell: cell})
	id2 := out2["id"].(string)
	waitJobState(t, ts, id2, JobDone)

	_, tbody := get(t, ts, "/v1/jobs/"+id2+"/timeline")
	events, err := timeline.Decode(strings.NewReader(string(tbody)))
	if err != nil {
		t.Fatal(err)
	}
	var hits, cells int
	for _, e := range events {
		if e.Name == "cache-hit" {
			hits++
		}
		if e.Ph == "X" && e.Pid == tlPidCells {
			cells++
		}
	}
	if hits == 0 {
		t.Error("no cache-hit instant on repeat job's timeline")
	}
	if cells != 0 {
		t.Errorf("cache-hit job ran %d cells", cells)
	}
}
