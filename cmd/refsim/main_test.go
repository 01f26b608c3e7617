package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"refsched/internal/metrics"
)

// TestMetricsDump builds the real binary, runs a tiny simulation with
// -metrics, and checks the dump round-trips as a metrics snapshot
// carrying the full per-layer hierarchy.
func TestMetricsDump(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the refsim binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "refsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	dump := filepath.Join(dir, "metrics.json")
	cmd := exec.Command(bin,
		"-mix", "WL-6", "-density", "8", "-policy", "allbank",
		"-scale", "4096", "-warmup", "1", "-measure", "1",
		"-footprint-scale", "0.01", "-metrics", dump)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("refsim: %v\n%s", err, out)
	}

	raw, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	var dumped map[string]metrics.Snapshot
	if err := json.Unmarshal(raw, &dumped); err != nil {
		t.Fatalf("metrics dump is not a snapshot map: %v", err)
	}
	snap, ok := dumped["0|WL-6"]
	if !ok {
		t.Fatalf("dump missing run key 0|WL-6; has %d entries", len(dumped))
	}

	// The cumulative hierarchy must be populated end to end: engine,
	// controller, bank, task, and OS layers.
	for _, name := range []string{
		"engine.events",
		"mc[0].reads",
		"mc[0].refresh.decisions",
		"mc[0].bank[0].refresh_busy_cycles",
		"task[0].instructions",
		"sched.picks",
		"kernel.quanta",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("snapshot missing counter %q", name)
		}
	}
	if snap.Counter("engine.events") == 0 || snap.Counter("task[0].instructions") == 0 {
		t.Error("cumulative counters are zero after a run")
	}

	// Round trip: marshaling the decoded snapshot reproduces the same
	// structure (stable JSON).
	again, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back metrics.Snapshot
	if err := json.Unmarshal(again, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("engine.events") != snap.Counter("engine.events") ||
		len(back.Counters) != len(snap.Counters) {
		t.Fatal("snapshot does not round-trip")
	}
}

// TestJournalFailedAppendExits3: a -journal FILE refsim cannot append
// to stops the journaling, not the run. The report prints as a clean
// run prints it, stderr names FILE, and the process exits 3.
func TestJournalFailedAppendExits3(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the refsim binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "refsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	args := []string{"-mix", "WL-6", "-scale", "4096", "-measure", "1", "-footprint-scale", "0.01"}
	clean, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, "missing-dir", "runs.json")
	cmd := exec.Command(bin, append([]string{"-journal", log}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 3 {
		t.Fatalf("exit %v, want 3\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), log) {
		t.Fatalf("stderr does not name %s:\n%s", log, stderr.String())
	}
	if !bytes.Equal(out, clean) {
		t.Fatalf("stdout differs from a clean run:\n%s\nclean:\n%s", out, clean)
	}
}
