package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSoak is the overload/chaos drill behind `make soak` (and its CI
// variant `make soak-short`). It builds the real refschedd and refload
// binaries and proves the daemon's resilience contract end to end:
//
//  1. refload drives thousands of mixed requests (cell POSTs across
//     tenants, exact and approx figure GETs, stats scrapes) against a
//     deliberately undersized queue with stall chaos slowing cells, so
//     brownout engages for real.
//  2. The daemon is SIGKILLed with acknowledged jobs still queued.
//     The job WAL on disk must contain a durable accept record for
//     every id any client was ever 202-acked — the acknowledgement
//     barrier — and the accepts without done records are the crash's
//     surviving obligations.
//  3. A warm restart on the same WAL replays every obligation to a
//     terminal state under its original id: zero acknowledged-job
//     loss. The restarted daemon recomputes a reference figure
//     byte-identical to the pre-kill answer, drains cleanly, and
//     leaves an empty ledger.
//  4. A separate daemon wedged by 100% stall chaos proves the
//     watchdog kills non-progressing jobs within its bound.
//
// Gated by REFSCHED_SOAK=short|full: "short" (~1k requests) is the
// scheduled-CI variant, "full" (>=5k) the release drill.
func TestSoak(t *testing.T) {
	mode := os.Getenv("REFSCHED_SOAK")
	switch mode {
	case "short", "full":
	case "":
		t.Skip("set REFSCHED_SOAK=short or full to run the soak drill")
	default:
		t.Fatalf("REFSCHED_SOAK=%q, want short or full", mode)
	}
	requests, conc := "1000", "24"
	if mode == "full" {
		requests, conc = "5000", "32"
	}

	dir := t.TempDir()
	refschedd := filepath.Join(dir, "refschedd")
	refload := filepath.Join(dir, "refload")
	for bin, pkg := range map[string]string{refschedd: ".", refload: "../refload"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	walPath := filepath.Join(dir, "jobs.wal")
	journal := filepath.Join(dir, "cache.json")
	daemonArgs := []string{
		"-addr", "127.0.0.1:0",
		"-quick", "-scale", "4096", "-footprint-scale", "0.01",
		"-mixes", "WL-6", "-windows", "1",
		"-workers", "2", "-queue-depth", "32",
		"-job-wal", walPath, "-journal", journal,
		// Stall chaos slows ~a third of cells without failing any, so
		// the queue actually backs up and brownout engages under load.
		"-chaos-frac", "0.35", "-chaos-mode", "stall", "-chaos-stall", "75ms",
	}

	// Phase 1: daemon A takes the load.
	portA := filepath.Join(dir, "port-a")
	a := exec.Command(refschedd, append(daemonArgs, "-port-file", portA)...)
	a.Stderr = io.Discard
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	aExited := make(chan error, 1)
	go func() { aExited <- a.Wait() }()
	defer a.Process.Kill()
	baseA := waitReady(t, portA, aExited)

	// Reference answer before any load, pinned to exact fidelity so a
	// brownout downgrade can never change the comparison.
	reference := getExactFigure(t, baseA, "fig10")

	ackedPath := filepath.Join(dir, "acked")
	outPath := filepath.Join(dir, "refload.json")
	load := exec.Command(refload,
		"-addr", strings.TrimPrefix(baseA, "http://"),
		"-n", requests, "-c", conc, "-tenants", "4",
		"-cell-frac", "0.6", "-approx-frac", "0.5",
		"-seeds", "48", "-mixes", "WL-6",
		"-acked-file", ackedPath, "-out", outPath)
	load.Stderr = os.Stderr
	if out, err := load.Output(); err != nil {
		t.Fatalf("refload: %v\n%s", err, out)
	}
	acked := readLines(t, ackedPath)
	if len(acked) == 0 {
		t.Fatal("refload acknowledged no jobs; the drill exercised nothing")
	}
	t.Logf("refload acked %d fresh jobs; summary at %s", len(acked), outPath)

	// Brownout must have genuinely engaged under the load.
	st := getStats(t, baseA)
	if st.Resilience.BrownoutEngagements < 1 {
		t.Fatalf("brownout never engaged during load: %+v", st.Resilience)
	}

	// A few last acknowledged jobs with unique seeds, then SIGKILL with
	// them (and whatever backlog remains) still pending.
	extras := postExtraJobs(t, baseA, 6)
	acked = append(acked, extras...)
	if err := a.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-aExited

	// The acknowledgement barrier: every 202-acked id has a durable
	// accept record in the WAL the kill left behind.
	accepts, dones := parseWALHistory(t, walPath)
	for _, id := range acked {
		if !accepts[id] {
			t.Fatalf("acked job %s has no durable accept record: acknowledged-job loss", id)
		}
	}
	var pending []string
	for id := range accepts {
		if !dones[id] {
			pending = append(pending, id)
		}
	}
	if len(pending) == 0 {
		t.Fatal("no pending obligations at kill time; the crash window was empty")
	}
	t.Logf("WAL: %d accepts, %d pending at kill", len(accepts), len(pending))

	// Phase 2: daemon B warm-restarts on the same WAL and journal.
	portB := filepath.Join(dir, "port-b")
	b := exec.Command(refschedd, append(daemonArgs, "-port-file", portB)...)
	b.Stderr = io.Discard
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	bExited := make(chan error, 1)
	go func() { bExited <- b.Wait() }()
	defer b.Process.Kill()
	baseB := waitReady(t, portB, bExited)

	// Zero acknowledged-job loss: every pending obligation is known to
	// the restarted daemon under its original id and reaches a terminal
	// state.
	for _, id := range pending {
		waitTerminal(t, baseB, id)
	}

	// The restarted daemon answers the reference figure byte-identically.
	if got := getExactFigure(t, baseB, "fig10"); !bytes.Equal(got, reference) {
		t.Fatalf("fig10 after warm restart differs from pre-kill reference:\n--- before\n%s\n--- after\n%s", reference, got)
	}

	// Graceful drain leaves an empty ledger.
	if err := b.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-bExited:
		if err != nil {
			t.Fatalf("daemon B exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("daemon B did not drain after SIGTERM")
	}
	accepts, dones = parseWALHistory(t, walPath)
	for id := range accepts {
		if !dones[id] {
			t.Fatalf("job %s still pending in the ledger after a clean drain", id)
		}
	}

	// Phase 3: the watchdog drill. 100% stall chaos wedges every cell
	// for far longer than the stall bound; the watchdog must kill the
	// job, not wait the stall out.
	portW := filepath.Join(dir, "port-w")
	w := exec.Command(refschedd,
		"-addr", "127.0.0.1:0", "-port-file", portW,
		"-quick", "-scale", "4096", "-footprint-scale", "0.01",
		"-mixes", "WL-6", "-windows", "1", "-workers", "1",
		"-chaos-frac", "1", "-chaos-mode", "stall", "-chaos-stall", "120s",
		"-watchdog-stall", "2s")
	w.Stderr = io.Discard
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	wExited := make(chan error, 1)
	go func() { wExited <- w.Wait() }()
	defer w.Process.Kill()
	baseW := waitReady(t, portW, wExited)

	id := postCellJob(t, baseW, 1)
	t0 := time.Now()
	status := waitTerminal(t, baseW, id)
	if status.State != "failed" || !strings.Contains(status.Error, "watchdog") {
		t.Fatalf("wedged job ended %q (%s), want a watchdog kill", status.State, status.Error)
	}
	if elapsed := time.Since(t0); elapsed > 30*time.Second {
		t.Fatalf("watchdog took %s to kill a job stalled past a 2s bound", elapsed)
	}
	if st := getStats(t, baseW); st.Resilience.WatchdogKills < 1 {
		t.Fatalf("watchdog_kills = %d after a kill", st.Resilience.WatchdogKills)
	}
	if err := w.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-wExited:
		if err != nil {
			t.Fatalf("watchdog daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("watchdog daemon did not drain after SIGTERM")
	}
}

// soakStats is the /statsz slice the drill asserts on.
type soakStats struct {
	Resilience struct {
		BrownoutEngagements uint64 `json:"brownout_engagements"`
		WatchdogKills       uint64 `json:"watchdog_kills"`
	} `json:"resilience"`
}

func getStats(t *testing.T, base string) soakStats {
	t.Helper()
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st soakStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getExactFigure(t *testing.T, base, name string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/figures/" + name + "?fidelity=exact")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("figure %s status %d: %s", name, resp.StatusCode, body)
	}
	return body
}

// postCellJob enqueues one fresh single-cell job and returns its id,
// retrying 429s while the queue drains leftover load.
func postCellJob(t *testing.T, base string, seed uint64) string {
	t.Helper()
	body := fmt.Sprintf(`{"cell":{"mix":"WL-6","density":"8Gb","bundle":"allbank"},"params":{"seed":%d}}`, seed)
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			ID string `json:"id"`
		}
		decodeErr := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if time.Now().After(deadline) {
				t.Fatalf("queue never freed a slot for seed %d", seed)
			}
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if decodeErr != nil {
			t.Fatal(decodeErr)
		}
		if resp.StatusCode != http.StatusAccepted || out.ID == "" {
			t.Fatalf("cell POST status %d id %q", resp.StatusCode, out.ID)
		}
		return out.ID
	}
}

// postExtraJobs acknowledges n fresh jobs (unique seeds far outside
// refload's range) so the imminent SIGKILL certainly strands pending,
// acknowledged work.
func postExtraJobs(t *testing.T, base string, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, postCellJob(t, base, uint64(9001+i)))
	}
	return ids
}

type jobStatus struct {
	State string `json:"state"`
	Error string `json:"error"`
}

// waitTerminal polls a job until it reaches any terminal state. A 404
// for an acknowledged id is the one unforgivable answer: it means the
// daemon lost acknowledged work.
func waitTerminal(t *testing.T, base, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			t.Fatalf("acknowledged job %s unknown after restart: acknowledged-job loss", id)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %s status %d: %s", id, resp.StatusCode, body)
		}
		var st jobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "done", "failed", "quarantined", "expired":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, st.State)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// parseWALHistory reads the raw ledger — every accept and done id since
// the last compaction — tolerating a torn final record. The ledger is a
// journal: the compacted header's entries and every record with a
// value are accepts, and a record with a null value is a done.
func parseWALHistory(t *testing.T, path string) (accepts, dones map[string]bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	accepts, dones = map[string]bool{}, map[string]bool{}
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var v struct {
			Entries map[string]json.RawMessage `json:"entries"`
			Key     string                     `json:"key"`
			Value   json.RawMessage            `json:"value"`
		}
		if dec.Decode(&v) != nil {
			break // the end, or the torn tail from the kill
		}
		for id := range v.Entries {
			accepts[id] = true
		}
		switch {
		case v.Key == "":
		case string(v.Value) == "null":
			dones[v.Key] = true
		default:
			accepts[v.Key] = true
		}
	}
	return accepts, dones
}
