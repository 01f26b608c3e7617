package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"refsched/internal/chaos"
	"refsched/internal/core"
	"refsched/internal/harness"
	"refsched/internal/metrics"
)

// tinyParams mirrors the harness tests' fast preset: one small mix at
// aggressive scale, so a full fig10 grid is 9 cells and runs in
// fractions of a second.
func tinyParams() harness.Params {
	return harness.Params{
		Scale:          4096,
		FootprintScale: 0.01,
		WarmupWindows:  1,
		MeasureWindows: 1,
		Mixes:          []string{"WL-6"},
		Seed:           1,
	}
}

func newTestServer(t *testing.T, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Params: tinyParams(), DrainTimeout: 30 * time.Second}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

var (
	fig10Once     sync.Once
	fig10Expected []byte
)

// expectedFig10 renders fig10 exactly as cmd/experiments would: the
// serial reference output the daemon must match byte for byte.
func expectedFig10(t *testing.T) []byte {
	t.Helper()
	fig10Once.Do(func() {
		p := tinyParams()
		p.Parallelism = 1
		rs, err := harness.RunFigure("fig10", p)
		if err != nil {
			t.Fatal(err)
		}
		fig10Expected = harness.Render(rs)
	})
	return fig10Expected
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func postJob(t *testing.T, ts *httptest.Server, req Request) (*http.Response, map[string]any) {
	t.Helper()
	raw, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func waitJobState(t *testing.T, ts *httptest.Server, id string, want ...JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, body := get(t, ts, "/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job status %d: %s", resp.StatusCode, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		if st.State == JobFailed {
			t.Fatalf("job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %v", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFigureByteIdenticalOnMissAndHit is the headline acceptance: the
// served fig10 body equals the batch CLI's serial render on a cache
// miss, and again (without recomputation) on the hit.
func TestFigureByteIdenticalOnMissAndHit(t *testing.T) {
	want := expectedFig10(t)
	s, ts := newTestServer(t, nil)

	resp, body := get(t, ts, "/v1/figures/fig10")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("miss status = %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request X-Cache = %q", resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("cache-miss body differs from serial CLI render:\ngot:\n%s\nwant:\n%s", body, want)
	}

	resp2, body2 := get(t, ts, "/v1/figures/fig10")
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second request X-Cache = %q", resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body2, want) {
		t.Fatal("cache-hit body differs from serial CLI render")
	}
	if got := s.simulations.Load(); got != 1 {
		t.Fatalf("simulations = %d, want 1 (hit must not recompute)", got)
	}

	// fig11 is an alias of the fig10 pair and must share its cache entry.
	resp3, body3 := get(t, ts, "/v1/figures/fig11")
	if resp3.Header.Get("X-Cache") != "hit" || !bytes.Equal(body3, want) {
		t.Fatal("fig11 alias should hit fig10's cache entry")
	}
}

// TestFigureNamesFromTable: the daemon takes its figure names from the
// harness's target table. It serves fig13 with the bytes cmd/experiments
// prints, and answers 400 for a name the table lacks, even one a figure
// renders under (fig13-lat is fig13's second table, not a target).
func TestFigureNamesFromTable(t *testing.T) {
	_, ts := newTestServer(t, nil)
	rs, err := harness.RunFigure("fig13", tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, ts, "/v1/figures/fig13")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, harness.Render(rs)) {
		t.Fatalf("fig13: status %d, body:\n%s\nwant:\n%s", resp.StatusCode, body, harness.Render(rs))
	}
	for _, name := range []string{"fig13-lat", "fig16"} {
		if resp, body := get(t, ts, "/v1/figures/"+name); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d: %s", name, resp.StatusCode, body)
		}
		if resp, out := postJob(t, ts, Request{Figure: name}); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d: %v", name, resp.StatusCode, out)
		}
	}
}

// TestSingleFlightDedup is the satellite acceptance: 50 goroutines
// requesting the same uncached figure must observe exactly one
// underlying RunBatch execution and byte-identical bodies.
func TestSingleFlightDedup(t *testing.T) {
	want := expectedFig10(t)
	s, ts := newTestServer(t, func(c *Config) { c.Workers = 4 })

	const n = 50
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Get(ts.URL + "/v1/figures/fig10")
			if err != nil {
				t.Error(err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()

	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Fatalf("goroutine %d saw a different body", i)
		}
	}
	if got := s.simulations.Load(); got != 1 {
		t.Fatalf("simulations = %d, want exactly 1 for 50 identical requests", got)
	}

	// The dedup shows up in /statsz.
	st := s.StatsSnapshot()
	if st.Jobs.Deduped+st.Jobs.CacheHits < n-1 {
		t.Fatalf("deduped=%d cache_hits=%d, expected %d requests collapsed",
			st.Jobs.Deduped, st.Jobs.CacheHits, n-1)
	}
}

// TestJobLifecycleAndEvents: enqueue, poll to completion, then replay
// the NDJSON event stream and check the full progress history.
func TestJobLifecycleAndEvents(t *testing.T) {
	_, ts := newTestServer(t, nil)

	resp, out := postJob(t, ts, Request{Figure: "fig10", Priority: 3})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("enqueue status = %d (%v)", resp.StatusCode, out)
	}
	id, _ := out["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", out)
	}

	st := waitJobState(t, ts, id, JobDone)
	if st.CellsTotal != 9 || st.CellsDone != 9 {
		t.Fatalf("cells = %d/%d, want 9/9", st.CellsDone, st.CellsTotal)
	}
	if st.Priority != 3 || st.Figure != "fig10" {
		t.Fatalf("status = %+v", st)
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		t.Fatal("timestamps missing on finished job")
	}

	eresp, ebody := get(t, ts, "/v1/jobs/"+id+"/events")
	if ct := eresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content-type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(string(ebody)), "\n")
	var cells, dones int
	var final map[string]any
	for _, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch ev["event"] {
		case "cell":
			cells++
			if ev["total"].(float64) != 9 {
				t.Fatalf("cell event total = %v", ev["total"])
			}
		case "done":
			dones++
			final = ev
		}
	}
	if cells != 9 || dones != 1 {
		t.Fatalf("event stream had %d cell and %d done events:\n%s", cells, dones, ebody)
	}
	if final["state"] != string(JobDone) {
		t.Fatalf("final event = %v", final)
	}

	// Unknown job id → 404.
	r404, _ := get(t, ts, "/v1/jobs/job-999999")
	if r404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d", r404.StatusCode)
	}
}

// TestCellJob: a single-cell request runs through the same pipeline
// and returns the report as JSON, and is cached under the cell's
// identity, not its spelling.
func TestCellJob(t *testing.T) {
	s, ts := newTestServer(t, nil)
	resp, out := postJob(t, ts, Request{
		Cell: &CellSpec{Mix: "WL-6", Density: "32", Bundle: "codesign"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("enqueue status = %d (%v)", resp.StatusCode, out)
	}
	id := out["id"].(string)
	st := waitJobState(t, ts, id, JobDone)
	if st.Cell == nil || st.Cell.Bundle != "codesign" {
		t.Fatalf("status cell = %+v", st.Cell)
	}

	// The same cell again, spelled canonically, is a cache hit answered
	// without queueing.
	resp2, out2 := postJob(t, ts, Request{
		Cell: &CellSpec{Mix: "WL-6", Density: "32Gb", Bundle: "codesign"},
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat enqueue status = %d", resp2.StatusCode)
	}
	st2 := waitJobState(t, ts, out2["id"].(string), JobDone)
	if !st2.CacheHit {
		t.Fatal("repeat cell job should be a cache hit")
	}
	if st2.ResultBytes == 0 {
		t.Fatal("cell job has no result bytes")
	}
	if sims := s.StatsSnapshot().Simulations; sims != 1 {
		t.Fatalf("simulations = %d, want 1 for two spellings of one cell", sims)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []Request{
		{},                                   // neither figure nor cell
		{Figure: "fig10", Cell: &CellSpec{}}, // both
		{Figure: "fig99"},                    // unknown figure
		{Cell: &CellSpec{Mix: "WL-99", Density: "32Gb", Bundle: "codesign"}}, // unknown mix
		{Cell: &CellSpec{Mix: "WL-6", Density: "48Gb", Bundle: "codesign"}},  // unknown density
		{Cell: &CellSpec{Mix: "WL-6", Density: "32Gb", Bundle: "nope"}},      // unknown bundle
	}
	for i, req := range cases {
		resp, out := postJob(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status = %d (%v), want 400", i, resp.StatusCode, out)
		}
	}
	resp, body := get(t, ts, "/v1/figures/fig99")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown figure GET = %d: %s", resp.StatusCode, body)
	}
	// An override the daemon does not know is refused, not ignored.
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"figure":"fig3","params":{"sweep_mixes":["WL-6"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("sweep_mixes override = %d, want 400", resp.StatusCode)
	}
}

// TestAdmissionControl: with the worker wedged on the cell gate, jobs
// beyond the queue depth are rejected with 429 + Retry-After.
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
		c.CellSlots = 1
	})

	// Wedge: hold the only cell slot so the running job can't advance.
	release, err := s.gate.acquire(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	unwedged := false
	defer func() {
		if !unwedged {
			release()
		}
	}()

	respA, outA := postJob(t, ts, Request{Figure: "fig10", Params: &ParamOverrides{Seed: u64(11)}})
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("job A status = %d", respA.StatusCode)
	}
	idA := outA["id"].(string)
	waitJobState(t, ts, idA, JobRunning)

	respB, _ := postJob(t, ts, Request{Figure: "fig10", Params: &ParamOverrides{Seed: u64(12)}})
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("job B status = %d, want queued 202", respB.StatusCode)
	}

	respC, outC := postJob(t, ts, Request{Figure: "fig10", Params: &ParamOverrides{Seed: u64(13)}})
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job C status = %d (%v), want 429", respC.StatusCode, outC)
	}
	if ra := respC.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}

	// A deduplicate of the running job is still accepted: it costs no
	// queue slot.
	respDup, outDup := postJob(t, ts, Request{Figure: "fig10", Params: &ParamOverrides{Seed: u64(11)}})
	if respDup.StatusCode != http.StatusOK || outDup["deduped"] != true {
		t.Fatalf("dup of running job = %d (%v)", respDup.StatusCode, outDup)
	}
	if outDup["id"] != idA {
		t.Fatalf("dup id = %v, want %s", outDup["id"], idA)
	}

	release()
	unwedged = true
	waitJobState(t, ts, idA, JobDone)
}

// TestQuarantinedJob: injected permanent faults quarantine every cell;
// the job reports typed failures, the body carries the failure table,
// and the partial result is never cached.
func TestQuarantinedJob(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		p := tinyParams()
		p.Chaos = chaos.New(chaos.Config{Seed: 1, Frac: 1, Mode: chaos.ModeError})
		c.Params = p
	})

	resp, body := get(t, ts, "/v1/figures/fig10")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quarantined figure status = %d", resp.StatusCode)
	}
	if q := resp.Header.Get("X-Refsched-Quarantined"); q != "9" {
		t.Fatalf("X-Refsched-Quarantined = %q, want 9", q)
	}
	if !strings.Contains(string(body), "failed and were quarantined") {
		t.Fatalf("body missing failure summary:\n%s", body)
	}

	resp2, out := postJob(t, ts, Request{Figure: "fig10"})
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("re-enqueue = %d (%v): quarantined results must not be cached", resp2.StatusCode, out)
	}
	st := waitJobState(t, ts, out["id"].(string), JobQuarantined)
	if len(st.Quarantined) != 9 {
		t.Fatalf("typed failures = %d, want 9", len(st.Quarantined))
	}
	f := st.Quarantined[0]
	if f.Kind != "error" || f.Seed != 1 || !strings.Contains(f.Detail, "chaos") {
		t.Fatalf("typed failure detail = %+v", f)
	}
	if got := s.simulations.Load(); got != 2 {
		t.Fatalf("simulations = %d, want 2 (no caching of partial results)", got)
	}
}

// TestDrainPersistsCacheAndWarmRestart is the restart acceptance: a
// shutdown begun while a job is in flight drains it, persists the
// cache, and a fresh daemon warms from the journal and serves the
// result without recomputing.
func TestDrainPersistsCacheAndWarmRestart(t *testing.T) {
	want := expectedFig10(t)
	path := filepath.Join(t.TempDir(), "cache.journal.json")

	cfg := Config{Params: tinyParams(), JournalPath: path, DrainTimeout: 60 * time.Second}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)

	// Enqueue and begin shutdown while the job is (likely) in flight:
	// drain must complete it, not drop it.
	_, out := postJob(t, ts1, Request{Figure: "fig10"})
	id := out["id"].(string)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st := s1.getJob(id).snapshot()
	if st.State != JobDone {
		t.Fatalf("in-flight job after drain = %s (err %q)", st.State, st.Error)
	}
	ts1.Close()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache journal not persisted: %v", err)
	}

	// Fresh daemon, same journal: instant hit, zero simulations.
	s2, ts2 := newTestServer(t, func(c *Config) { c.JournalPath = path })
	resp, body := get(t, ts2, "/v1/figures/fig10")
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("warm restart X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body, want) {
		t.Fatal("journal-warmed body differs from serial CLI render")
	}
	if got := s2.simulations.Load(); got != 0 {
		t.Fatalf("warm restart ran %d simulations, want 0", got)
	}
}

// TestFigureCountersCountSimulatedCells: a figure's counters add only
// the cells its jobs simulate. After fig10, fig14's all-bank, per-bank
// and co-design cells are answered from the daemon's memo, so fig14's
// job simulates, and counts, only the two cells fig10 lacks: its OOO
// per-bank and Adaptive Refresh cells.
func TestFigureCountersCountSimulatedCells(t *testing.T) {
	s, ts := newTestServer(t, nil)
	for _, fig := range []string{"fig10", "fig14"} {
		if resp, body := get(t, ts, "/v1/figures/"+fig); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", fig, resp.StatusCode, body)
		}
	}
	snap := s.MetricsSnapshot()
	// One mix: fig10 is 3 densities x 3 bundles, fig14 5 bundles at 32 Gb.
	for fig, want := range map[string]uint64{"fig10": 9, "fig14": 2} {
		if got := snap.Counter("figure[" + fig + "].cells"); got != want {
			t.Errorf("%s counted %d cells, want %d", fig, got, want)
		}
	}
	if got := s.simulations.Load(); got != 2 {
		t.Errorf("simulations = %d, want one batch per figure", got)
	}
}

// TestCacheJournalSurvivesKill: a computed result is appended to the
// journal as it is kept, so a daemon that never drains (a SIGKILL)
// still leaves it for the next start. The next start's drain compacts
// the journal to one JSON object holding the figure and each of its
// cells — the file refbench's storedCells decodes — and that form warms
// a third start. A file under the daemon's earlier cache format is
// dropped instead.
func TestCacheJournalSurvivesKill(t *testing.T) {
	want := expectedFig10(t)
	path := filepath.Join(t.TempDir(), "cache.journal.json")

	// Daemon 1 computes fig10 and is abandoned without a drain.
	_, ts1 := newTestServer(t, func(c *Config) { c.JournalPath = path })
	if resp, _ := get(t, ts1, "/v1/figures/fig10"); resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}

	// Daemon 2 warms from what daemon 1 appended.
	s2, err := New(Config{Params: tinyParams(), JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2)
	resp, body := get(t, ts2, "/v1/figures/fig10")
	if resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(body, want) || s2.simulations.Load() != 0 {
		t.Fatalf("restart after a kill: X-Cache = %q, simulations = %d, body matches = %v",
			resp.Header.Get("X-Cache"), s2.simulations.Load(), bytes.Equal(body, want))
	}
	ts2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The drained file is one JSON value, decoded as storedCells does:
	// fig10's body and its nine cells' reports.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var stored struct {
		Entries map[string]string `json:"entries"`
	}
	if err := json.Unmarshal(data, &stored); err != nil {
		t.Fatalf("drained journal is not one JSON value: %v", err)
	}
	figures, cells := 0, 0
	for key, b := range stored.Entries {
		switch {
		case strings.HasPrefix(key, "cell|") && strings.HasPrefix(b, "{"):
			cells++
		case b == string(want):
			figures++
		default:
			t.Errorf("drained journal holds an unexpected entry %q", key)
		}
	}
	if figures != 1 || cells != 9 {
		t.Fatalf("drained journal holds %d figures and %d cells, want fig10 and its 9", figures, cells)
	}

	// Byte for byte the journal's single-object form.
	compact := struct {
		Fingerprint string                     `json:"fingerprint"`
		Entries     map[string]json.RawMessage `json:"entries"`
	}{Fingerprint: "results v1", Entries: map[string]json.RawMessage{}}
	for k, b := range stored.Entries {
		compact.Entries[k], _ = json.Marshal(b)
	}
	one, err := json.MarshalIndent(compact, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, append(one, '\n')) {
		t.Fatalf("drained journal differs from the single-object form:\n%s", data)
	}
	s3, ts3 := newTestServer(t, func(c *Config) { c.JournalPath = path })
	if resp, _ := get(t, ts3, "/v1/figures/fig10"); resp.Header.Get("X-Cache") != "hit" || s3.simulations.Load() != 0 {
		t.Fatalf("drained journal: X-Cache = %q, simulations = %d", resp.Header.Get("X-Cache"), s3.simulations.Load())
	}

	compact.Fingerprint = "refschedd-cache-v1"
	old, _ := json.MarshalIndent(compact, "", " ")
	oldPath := filepath.Join(t.TempDir(), "old.journal.json")
	if err := os.WriteFile(oldPath, append(old, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer // warnings only, all logged by New
	_, ts4 := newTestServer(t, func(c *Config) {
		c.JournalPath = oldPath
		c.Logger = slog.New(slog.NewTextHandler(&logged, &slog.HandlerOptions{Level: slog.LevelWarn}))
	})
	if !strings.Contains(logged.String(), "dropped=\"10 entries under another format\"") {
		t.Fatalf("the dropped earlier-format entries were not logged:\n%s", logged.String())
	}
	if resp, _ := get(t, ts4, "/v1/figures/fig10"); resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("earlier-format journal: X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}
}

// TestDrainDeadlineAbortsInFlightCells: when the drain deadline
// expires, Shutdown aborts the cells still running instead of waiting
// them out — here a 30s chaos stall that only the job's hard context
// can interrupt, with a stall bound the watchdog never reaches.
func TestDrainDeadlineAbortsInFlightCells(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.DrainTimeout = 100 * time.Millisecond
		c.Watchdog = WatchdogConfig{Stall: time.Hour}
		c.Params.Chaos = chaos.New(chaos.Config{Seed: 1, Frac: 1, Mode: chaos.ModeStall, Stall: 30 * time.Second})
	})
	_, out := postJob(t, ts, cellReq(1))
	id := out["id"].(string)
	waitJobState(t, ts, id, JobRunning)

	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	s.Shutdown(ctx)
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %s past a 100ms drain deadline; the in-flight cell was not aborted", elapsed)
	}
	if st := s.getJob(id).snapshot(); st.State != JobFailed {
		t.Fatalf("aborted job ended %s, want %s", st.State, JobFailed)
	}
}

// TestLoadMixedConcurrent is the loopback load acceptance: >= 64
// concurrent mixed requests complete without races (run under -race
// in CI) and every response is well-formed.
func TestLoadMixedConcurrent(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Workers = 4
		c.QueueDepth = 128
	})

	const n = 72
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 6 {
			case 0:
				resp, _ := get(t, ts, "/healthz")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("healthz = %d", resp.StatusCode)
				}
			case 1:
				resp, body := get(t, ts, "/statsz")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("statsz = %d", resp.StatusCode)
				}
				var st Stats
				if err := json.Unmarshal(body, &st); err != nil {
					t.Errorf("statsz decode: %v", err)
				}
			case 2:
				resp, _ := get(t, ts, "/v1/figures/table1")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("table1 = %d", resp.StatusCode)
				}
			case 3:
				resp, _ := get(t, ts, "/v1/figures/table2")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("table2 = %d", resp.StatusCode)
				}
			case 4:
				resp, _ := get(t, ts, "/v1/figures/fig10")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("fig10 = %d", resp.StatusCode)
				}
			case 5:
				seed := uint64(2 + i%3)
				resp, out := postJob(t, ts, Request{Figure: "fig10", Params: &ParamOverrides{Seed: &seed}})
				switch resp.StatusCode {
				case http.StatusAccepted, http.StatusOK:
					waitJobState(t, ts, out["id"].(string), JobDone)
				case http.StatusTooManyRequests:
					// Admission control doing its job under load.
				default:
					t.Errorf("enqueue = %d (%v)", resp.StatusCode, out)
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestHealthzAndStatsz: payload shape, version stamping, and the
// per-figure latency quantiles.
func TestHealthzAndStatsz(t *testing.T) {
	_, ts := newTestServer(t, nil)
	get(t, ts, "/v1/figures/fig10")
	get(t, ts, "/v1/figures/fig10")

	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version.GoVersion == "" || h.Version.Module == "" {
		t.Fatalf("healthz payload = %+v", h)
	}

	_, sbody := get(t, ts, "/statsz")
	var st Stats
	if err := json.Unmarshal(sbody, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits < 1 || st.Cache.HitRatio <= 0 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}
	// The histogram records compute latency: the first GET executed,
	// the second was answered from cache at enqueue without a queue
	// trip, so exactly one sample.
	lat, ok := st.Figures["fig10"]
	if !ok || lat.Count != 1 {
		t.Fatalf("figure latency stats = %+v", st.Figures)
	}
	if lat.P50MS > lat.P90MS || lat.P90MS > lat.P99MS {
		t.Fatalf("quantiles not monotonic: %+v", lat)
	}
}

// TestCellBodyIsReportJSON: the cell result decodes into core.Report.
func TestCellBodyIsReportJSON(t *testing.T) {
	s, ts := newTestServer(t, nil)
	_, out := postJob(t, ts, Request{Cell: &CellSpec{Mix: "WL-6", Density: "16Gb", Bundle: "allbank"}})
	id := out["id"].(string)
	waitJobState(t, ts, id, JobDone)

	j := s.getJob(id)
	_, body, _ := j.result()
	var rep core.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("cell body is not a core.Report: %v\n%s", err, body)
	}
	if rep.HarmonicIPC <= 0 {
		t.Fatalf("decoded report looks empty: %+v", rep)
	}
}

func u64(v uint64) *uint64 { return &v }

// TestMetricszEndpoint drives a figure through the daemon twice (one
// computed, one cache hit) and validates /metricsz end to end: the body
// must be well-formed Prometheus text exposition, and it must carry the
// daemon's queue/job/cache state plus the per-figure simulator counters
// accumulated from the cells the sweep ran.
func TestMetricszEndpoint(t *testing.T) {
	s, ts := newTestServer(t, nil)

	resp, _ := get(t, ts, "/v1/figures/fig10")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("figure status %d", resp.StatusCode)
	}
	resp, _ = get(t, ts, "/v1/figures/fig10")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second fetch: status %d cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	resp, body := get(t, ts, "/metricsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metricsz status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	samples, err := metrics.ParsePrometheusText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metricsz is not valid exposition text: %v\n%s", err, body)
	}

	sample := func(name string, labels map[string]string) (float64, bool) {
	next:
		for _, sm := range samples {
			if sm.Name != name {
				continue
			}
			for k, v := range labels {
				if sm.Labels[k] != v {
					continue next
				}
			}
			return sm.Value, true
		}
		return 0, false
	}
	mustSample := func(name string, labels map[string]string) float64 {
		v, ok := sample(name, labels)
		if !ok {
			t.Fatalf("missing sample %s%v", name, labels)
		}
		return v
	}

	// Daemon queue and job state.
	if v := mustSample("refschedd_jobs_enqueued", nil); v != 2 {
		t.Errorf("jobs_enqueued = %v, want 2", v)
	}
	if v := mustSample("refschedd_jobs_completed", nil); v != 2 {
		t.Errorf("jobs_completed = %v, want 2", v)
	}
	if v := mustSample("refschedd_jobs_cache_hits", nil); v != 1 {
		t.Errorf("jobs_cache_hits = %v, want 1", v)
	}
	if v := mustSample("refschedd_simulations", nil); v != 1 {
		t.Errorf("simulations = %v, want 1", v)
	}
	if v := mustSample("refschedd_queue_capacity", nil); v != float64(s.cfg.QueueDepth) {
		t.Errorf("queue_capacity = %v, want %d", v, s.cfg.QueueDepth)
	}
	if _, ok := sample("refschedd_queue_depth", nil); !ok {
		t.Error("missing queue_depth gauge")
	}

	// Cache state: the figure and its 9 cells stored, one hit, one miss.
	if v := mustSample("refschedd_cache_entries", nil); v != 10 {
		t.Errorf("cache_entries = %v, want 10", v)
	}
	if v := mustSample("refschedd_cache_hits", nil); v < 1 {
		t.Errorf("cache_hits = %v, want >= 1", v)
	}

	// Per-figure simulator counters: the fig10 grid is 3 densities x 3
	// bundles = 9 cells, and a simulated interval always executes events
	// and reads.
	figLabel := map[string]string{"figure": "fig10"}
	if v := mustSample("refschedd_figure_cells", figLabel); v != 9 {
		t.Errorf("figure_cells = %v, want 9", v)
	}
	for _, name := range []string{
		"refschedd_figure_sim_events",
		"refschedd_figure_reads",
		"refschedd_figure_refresh_commands",
	} {
		if v := mustSample(name, figLabel); v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}

	// Latency histogram: only the computed job observes latency (the
	// second request is answered at enqueue time and never executes).
	if v := mustSample("refschedd_figure_job_latency_ms_count", figLabel); v != 1 {
		t.Errorf("job_latency count = %v, want 1", v)
	}

	// /statsz is a projection of the same registry: spot-check agreement.
	st := s.StatsSnapshot()
	if float64(st.Jobs.Enqueued) != mustSample("refschedd_jobs_enqueued", nil) {
		t.Errorf("statsz enqueued %d disagrees with /metricsz", st.Jobs.Enqueued)
	}
	if st.Figures["fig10"].Count != 1 {
		t.Errorf("statsz figure count = %d, want 1", st.Figures["fig10"].Count)
	}
}
