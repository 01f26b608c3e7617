package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestJournalDropsAreReported builds the real binary and reruns a small
// sweep over a -journal log that lost something: a log cut mid-record,
// and a file an earlier release wrote in another format. Each rerun
// names the file and what was dropped in one stderr line, exits 0, and
// prints what a clean run prints.
func TestJournalDropsAreReported(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the experiments binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	args := []string{"-quick", "-mixes", "WL-6", "-scale", "1024", "-windows", "1", "-j", "2"}
	run := func(extra ...string) (stdout, stderr string) {
		t.Helper()
		cmd := exec.Command(bin, append(append(append([]string{}, args...), extra...), "fig12")...)
		var out, errOut bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errOut
		if err := cmd.Run(); err != nil {
			t.Fatalf("experiments %v: %v\n%s", extra, err, errOut.String())
		}
		var kept []string
		for _, line := range strings.SplitAfter(out.String(), "\n") {
			if !strings.HasPrefix(line, "total:") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, ""), errOut.String()
	}
	clean, _ := run()

	log := filepath.Join(dir, "cells.json")
	if _, stderr := run("-journal", log); stderr != "" {
		t.Fatalf("a fresh journal reported: %s", stderr)
	}
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(log, data[:len(data)-40], 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr := run("-journal", log)
	if want := "experiments: " + log + ": dropped a torn final record\n"; stderr != want {
		t.Fatalf("over a cut log, stderr = %q, want %q", stderr, want)
	}
	if stdout != clean {
		t.Fatalf("over a cut log, stdout differs from a clean run:\n%s\nclean:\n%s", stdout, clean)
	}

	old := filepath.Join(dir, "fig12.journal.json")
	if err := os.WriteFile(old, []byte(`{"fingerprint":"v4 mode=exact scale=1024","entries":{"WL-6|32Gb|fgr2x":{},"WL-6|32Gb|fgr4x":{}}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr = run("-journal", old)
	if want := "experiments: " + old + ": dropped 2 entries under another format\n"; stderr != want {
		t.Fatalf("over an earlier format, stderr = %q, want %q", stderr, want)
	}
	if stdout != clean {
		t.Fatalf("over an earlier format, stdout differs from a clean run:\n%s\nclean:\n%s", stdout, clean)
	}
}

// TestJournalFailedAppendExits3: a -journal FILE the run cannot append
// to stops the journaling, not the run. The figures print as a clean
// run prints them, stderr names FILE, and the process exits 3.
func TestJournalFailedAppendExits3(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the experiments binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	args := []string{"-quick", "-mixes", "WL-6", "-scale", "1024", "-windows", "1", "fig12"}
	clean, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, "missing-dir", "cells.json")
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
	body := func(b []byte) string { s, _, _ := strings.Cut(string(b), "total:"); return s }
	if body(out) != body(clean) {
		t.Fatalf("stdout differs from a clean run:\n%s\nclean:\n%s", out, clean)
	}
}

// TestUnknownModeExits2: a -mode that names no simulation tier is flag
// misuse. The process exits 2 with a message naming the mode before any
// cell runs, so stdout stays empty.
func TestUnknownModeExits2(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the experiments binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-quick", "-mixes", "WL-6", "-mode", "bogus", "-v", "fig10")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("exit %v, want 2\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), `unknown mode "bogus"`) {
		t.Fatalf("stderr does not name the mode:\n%s", stderr.String())
	}
	if len(out) != 0 {
		t.Fatalf("stdout is not empty:\n%s", out)
	}
}
