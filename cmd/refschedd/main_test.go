package main

import (
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

	"refsched/internal/metrics"
)

// TestDaemonSmoke is the end-to-end drill `make ci` runs: build the
// real binary, bring it up on an ephemeral port, round-trip a figure
// through the cache, and check SIGTERM drains to a clean exit 0.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "refschedd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	portFile := filepath.Join(dir, "port")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-port-file", portFile,
		"-quick", "-journal", filepath.Join(dir, "cache.json"))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer cmd.Process.Kill()

	base := waitReady(t, portFile, exited)

	// Figure round-trip: miss computes, hit serves the same bytes.
	body1 := getFigure(t, base, "table1", "miss")
	body2 := getFigure(t, base, "table1", "hit")
	if body1 != body2 {
		t.Fatal("cache hit served different bytes than the miss")
	}
	if !strings.Contains(body1, "table1") {
		t.Fatalf("unexpected figure body:\n%s", body1)
	}

	// SIGTERM drains to exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// TestDaemonKillWarmRestart is the cache-durability drill `make ci`
// runs next to TestDaemonSmoke: serve a sweep figure, SIGKILL the
// daemon, restart it on the same -journal, and get the figure back as
// a hit with zero simulations. A SIGTERM then leaves the journal as the
// one JSON object refbench's storedCells decodes.
func TestDaemonKillWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "refschedd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	journal := filepath.Join(dir, "cache.json")
	start := func(name string) (*exec.Cmd, chan error, string) {
		portFile := filepath.Join(dir, "port-"+name)
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-port-file", portFile,
			"-quick", "-scale", "4096", "-footprint-scale", "0.01", "-mixes", "WL-6", "-windows", "1",
			"-journal", journal)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		t.Cleanup(func() { cmd.Process.Kill() })
		return cmd, exited, waitReady(t, portFile, exited)
	}

	a, aExited, baseA := start("a")
	want := getFigure(t, baseA, "fig10", "miss")
	if err := a.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-aExited

	b, bExited, baseB := start("b")
	if got := getFigure(t, baseB, "fig10", "hit"); got != want {
		t.Fatal("warm restart after SIGKILL served different bytes")
	}
	resp, err := http.Get(baseB + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Simulations uint64 `json:"simulations"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Simulations != 0 {
		t.Fatalf("warm restart after SIGKILL ran %d simulations, want 0", st.Simulations)
	}

	if err := b.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-bExited:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var stored struct {
		Entries map[string]string `json:"entries"`
	}
	if err := json.Unmarshal(data, &stored); err != nil {
		t.Fatalf("drained journal is not one JSON value: %v", err)
	}
	found := false
	for _, body := range stored.Entries {
		found = found || body == want
	}
	if !found {
		t.Fatalf("drained journal's %d entries lack the fig10 body", len(stored.Entries))
	}
}

// TestCLIJournalWarmsDaemon: experiments -journal and refschedd
// -journal keep one kind of file. A log an experiments fig10 run wrote
// warms a daemon started on it with the same preset: GET fig10 returns
// the CLI's bytes, and the daemon simulates none of its cells.
func TestCLIJournalWarmsDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the experiments and daemon binaries")
	}
	dir := t.TempDir()
	cliBin, daemonBin := filepath.Join(dir, "experiments"), filepath.Join(dir, "refschedd")
	for bin, pkg := range map[string]string{cliBin: "../experiments", daemonBin: "."} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	preset := []string{"-quick", "-scale", "4096", "-mixes", "WL-6", "-windows", "1"}
	journal := filepath.Join(dir, "results.json")
	cmd := exec.Command(cliBin, append(append([]string{}, preset...), "-journal", journal, "fig10")...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("experiments: %v", err)
	}
	cli, _, _ := strings.Cut(string(out), "total:")

	portFile := filepath.Join(dir, "port")
	daemon := exec.Command(daemonBin, append(preset, "-addr", "127.0.0.1:0", "-port-file", portFile, "-journal", journal)...)
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- daemon.Wait() }()
	defer daemon.Process.Kill()
	base := waitReady(t, portFile, exited)

	if got := getFigure(t, base, "fig10", "miss"); got != cli {
		t.Fatalf("the daemon's fig10 differs from the CLI's:\n%s\nCLI:\n%s", got, cli)
	}
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParsePrometheusText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sm := range samples {
		if sm.Name == "refschedd_figure_cells" && sm.Labels["figure"] == "fig10" {
			found = true
			if sm.Value != 0 {
				t.Fatalf("the daemon simulated %v of fig10's cells, want 0", sm.Value)
			}
		}
	}
	if !found {
		t.Fatal(`/metricsz has no refschedd_figure_cells{figure="fig10"} sample`)
	}
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// TestSIGTERMAtStartupDrains signals the daemon the moment its port
// file is complete, the earliest point a supervisor can know it is up.
// Every start must still drain cleanly to exit 0: the signal handler
// has to be installed before the port is published.
func TestSIGTERMAtStartupDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "refschedd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for run := 0; run < 25; run++ {
		portFile := filepath.Join(dir, fmt.Sprintf("port%d", run))
		var stderr bytes.Buffer
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-port-file", portFile, "-quick")
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			if raw, _ := os.ReadFile(portFile); bytes.HasSuffix(raw, []byte("\n")) {
				break
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("run %d: port file never appeared\n%s", run, stderr.String())
			}
			time.Sleep(200 * time.Microsecond)
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		err := cmd.Wait()
		if err != nil || !strings.Contains(stderr.String(), "drained cleanly") {
			t.Fatalf("run %d: SIGTERM right after the port file: exit %v, want a clean drain\n%s",
				run, err, stderr.String())
		}
	}
}

// waitReady polls the port file and /healthz until the daemon answers.
func waitReady(t *testing.T, portFile string, exited <-chan error) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case err := <-exited:
			t.Fatalf("daemon exited before becoming ready: %v", err)
		default:
		}
		if raw, err := os.ReadFile(portFile); err == nil {
			base := "http://127.0.0.1:" + strings.TrimSpace(string(raw))
			resp, err := http.Get(base + "/healthz")
			if err == nil {
				ok := resp.StatusCode == http.StatusOK
				resp.Body.Close()
				if ok {
					return base
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became healthy")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func getFigure(t *testing.T, base, name, wantCache string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/figures/" + name)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("figure status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != wantCache {
		t.Fatalf("X-Cache = %q, want %q", got, wantCache)
	}
	return string(body)
}

// TestPprofSmoke: with -pprof the daemon answers /debug/pprof/; without
// the flag those paths 404 (the endpoints are strictly opt-in), and in
// both cases the service API keeps working underneath the outer mux.
func TestPprofSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the daemon binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "refschedd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	for _, tc := range []struct {
		name   string
		pprof  bool
		status int
	}{
		{"enabled", true, http.StatusOK},
		{"disabled", false, http.StatusNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			portFile := filepath.Join(dir, "port-"+tc.name)
			args := []string{"-addr", "127.0.0.1:0", "-port-file", portFile, "-quick"}
			if tc.pprof {
				args = append(args, "-pprof")
			}
			cmd := exec.Command(bin, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			exited := make(chan error, 1)
			go func() { exited <- cmd.Wait() }()
			defer func() {
				cmd.Process.Signal(syscall.SIGTERM)
				select {
				case <-exited:
				case <-time.After(30 * time.Second):
					cmd.Process.Kill()
				}
			}()

			base := waitReady(t, portFile, exited)
			resp, err := http.Get(base + "/debug/pprof/goroutine?debug=1")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("/debug/pprof/goroutine status = %d, want %d\n%s",
					resp.StatusCode, tc.status, body)
			}
			if tc.pprof && !strings.Contains(string(body), "goroutine") {
				t.Fatalf("pprof body does not look like a goroutine profile:\n%s", body)
			}
		})
	}
}

// TestLogFormatFlag: an invalid -log-format is a usage error (exit 2).
func TestLogFormatFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the go tool")
	}
	cmd := exec.Command("go", "run", ".", "-log-format", "yaml")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() == 0 {
		t.Fatalf("invalid -log-format: err=%v out=%s", err, out)
	}
	if !strings.Contains(string(out), "-log-format") {
		t.Fatalf("error output does not mention the flag:\n%s", out)
	}
}

// TestVersionFlag: -version prints the build stamp and exits 0.
func TestVersionFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the go tool")
	}
	out, err := exec.Command("go", "run", ".", "-version").Output()
	if err != nil {
		t.Fatalf("-version: %v", err)
	}
	if !strings.Contains(string(out), "refsched") {
		t.Fatalf("-version output = %q", out)
	}
}
