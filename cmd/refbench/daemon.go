package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"refsched/internal/service"
)

// opResult is one request as the client saw it.
type opResult struct {
	op    serveOp
	start time.Time
	ms    float64
	ok    bool   // 2xx, and a posted job ended done
	cold  bool   // waited on a simulation: a miss, a fresh job or one coalesced onto a running job
	job   string // the posted job's id
	sha   string // digest of a figure's body
	err   string
}

// daemon is one running refschedd.
type daemon struct {
	cmd     *exec.Cmd
	log     bytes.Buffer // stderr; read only after exited closes
	exited  chan struct{}
	waitErr error
	stopped bool
	base    string // http://127.0.0.1:<port>
	journal string // where a drained daemon persists its result cache
	setup   time.Duration
}

// startDaemon starts refschedd on an ephemeral loopback port and waits
// until /healthz answers 200; the time from exec to then is its set-up.
func (b *bench) startDaemon(ctx context.Context) (*daemon, error) {
	dir, err := os.MkdirTemp(b.tmp, "daemon-")
	if err != nil {
		return nil, err
	}
	portFile := filepath.Join(dir, "port")
	d := &daemon{exited: make(chan struct{}), journal: filepath.Join(dir, "cache.json")}
	// -journal persists the result cache at shutdown, which is how the
	// benchmark reads back the cell reports it checks; -pprof serves the
	// heap statistics and, when tracing, the CPU profile.
	args := append([]string{"-addr", "127.0.0.1:0", "-port-file", portFile, "-journal", d.journal, "-pprof"}, b.daemonArgs...)
	d.cmd = exec.Command(b.refschedd, args...)
	d.cmd.Stderr = &d.log
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	poll := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	for {
		if raw, err := os.ReadFile(portFile); err == nil && bytes.HasSuffix(raw, []byte("\n")) {
			d.base = "http://127.0.0.1:" + strings.TrimSpace(string(raw))
			if resp, err := poll.Get(d.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					d.setup = time.Since(start)
					return d, nil
				}
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("refschedd exited during start-up: %v\n%s", d.waitErr, d.log.String())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, errors.New("refschedd did not become healthy within 30s")
		}
	}
}

// stop drains the daemon with SIGTERM, which also persists its cache
// journal, and waits for it to exit; a daemon that does not drain
// within a minute is killed. Calling stop again returns at once.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(time.Minute):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("refschedd did not drain within a minute")
	}
	if d.waitErr != nil {
		return fmt.Errorf("refschedd: %v\n%s", d.waitErr, d.log.String())
	}
	return nil
}

func (d *daemon) request(ctx context.Context, c *http.Client, method, path, body string) ([]byte, *http.Response, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp, err
}

// do performs one op and times it from the client's side. A posted job
// not already done is awaited on its NDJSON event stream.
func (d *daemon) do(ctx context.Context, c *http.Client, op serveOp) (r opResult) {
	r = opResult{op: op, start: time.Now()}
	defer func() { r.ms = float64(time.Since(r.start).Nanoseconds()) / 1e6 }()
	if op.figure != "" {
		body, resp, err := d.request(ctx, c, http.MethodGet, "/v1/figures/"+op.figure, "")
		switch {
		case err != nil:
			r.err = err.Error()
		case resp.StatusCode != http.StatusOK:
			r.err = fmt.Sprintf("GET %s: %s", op.figure, resp.Status)
		default:
			r.ok, r.cold, r.sha = true, resp.Header.Get("X-Cache") != "hit", digest(body)
		}
		return r
	}
	req := fmt.Sprintf(`{"cell":{"mix":%q,"density":%q,"bundle":%q},"params":{"seed":%d}}`,
		op.cell.Mix, op.cell.Density, op.cell.Bundle, op.cell.Seed)
	body, resp, err := d.request(ctx, c, http.MethodPost, "/v1/jobs", req)
	if err != nil {
		r.err = err.Error()
		return r
	}
	var ack struct {
		ID      string `json:"id"`
		State   string `json:"state"`
		Deduped bool   `json:"deduped"`
	}
	if resp.StatusCode/100 != 2 || json.Unmarshal(body, &ack) != nil {
		r.err = fmt.Sprintf("POST cell: %s: %s", resp.Status, body)
		return r
	}
	r.job = ack.ID
	r.cold = resp.StatusCode == http.StatusAccepted || ack.Deduped
	state := ack.State
	if state != "done" {
		if state, err = d.await(ctx, c, ack.ID); err != nil {
			r.err = err.Error()
			return r
		}
	}
	if state != "done" {
		r.err = fmt.Sprintf("job %s ended %s", ack.ID, state)
		return r
	}
	r.ok = true
	return r
}

// await follows a job's event stream to its terminal state.
func (d *daemon) await(ctx context.Context, c *http.Client, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Event string `json:"event"`
			State string `json:"state"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Event == "done" {
			io.Copy(io.Discard, resp.Body) // to EOF, so the connection is reused
			return ev.State, nil
		}
	}
	return "", fmt.Errorf("job %s: event stream ended before the job finished", id)
}

// counters is a snapshot of the daemon's own accounting.
type counters struct {
	stats      service.Stats
	figure     map[string]float64 // /metricsz per-figure counters, summed over figures
	totalAlloc uint64             // runtime.MemStats.TotalAlloc
}

func (d *daemon) counters(ctx context.Context) (counters, error) {
	c := counters{figure: map[string]float64{}}
	client := &http.Client{}
	defer client.CloseIdleConnections()
	body, _, err := d.request(ctx, client, http.MethodGet, "/statsz", "")
	if err == nil {
		err = json.Unmarshal(body, &c.stats)
	}
	if err != nil {
		return c, fmt.Errorf("/statsz: %w", err)
	}
	if body, _, err = d.request(ctx, client, http.MethodGet, "/metricsz", ""); err != nil {
		return c, fmt.Errorf("/metricsz: %w", err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		name, _, labelled := strings.Cut(line, "{")
		if !labelled || !strings.HasPrefix(name, "refschedd_figure_") {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			c.figure[strings.TrimPrefix(name, "refschedd_figure_")] += v
		}
	}
	if body, _, err = d.request(ctx, client, http.MethodGet, "/debug/pprof/heap?debug=1", ""); err != nil {
		return c, fmt.Errorf("heap profile: %w", err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			c.totalAlloc, err = strconv.ParseUint(v, 10, 64)
			return c, err
		}
	}
	return c, errors.New("heap profile has no TotalAlloc")
}

// storedCells returns the digests of the single-cell results a drained
// daemon persisted in its cache journal. Cell results are JSON reports;
// figure results are rendered text.
func storedCells(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Entries map[string]string `json:"entries"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	set := map[string]bool{}
	for _, body := range f.Entries {
		if strings.HasPrefix(body, "{") {
			set[digest([]byte(body))] = true
		}
	}
	return set, nil
}

// fetchProfile records the daemon's CPU profile for secs seconds.
func (d *daemon) fetchProfile(ctx context.Context, path string, secs int) error {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	body, resp, err := d.request(ctx, client, http.MethodGet, fmt.Sprintf("/debug/pprof/profile?seconds=%d", secs), "")
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("CPU profile: %s: %s", resp.Status, body)
	}
	return os.WriteFile(path, body, 0o644)
}
