package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"refsched/internal/cluster"
	"refsched/internal/core"
	"refsched/internal/harness"
)

// swapHandler lets the httptest listeners exist (so peer addresses are
// known) before the services that answer on them are constructed.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (sh *swapHandler) swap(h http.Handler) { sh.h.Store(&h) }

func (sh *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := sh.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
}

// clusterNodes is an in-process cluster: n refschedd services wired to
// each other over real listeners.
type clusterNodes struct {
	ids   []string
	svcs  map[string]*Server
	urls  map[string]string
	swaps map[string]*swapHandler
}

func newClusterNodes(t *testing.T, n, fanout int, mod func(id string, cfg *Config)) *clusterNodes {
	t.Helper()
	cn := &clusterNodes{svcs: map[string]*Server{}, urls: map[string]string{}, swaps: map[string]*swapHandler{}}
	members := make([]cluster.Member, n)
	tss := make([]*httptest.Server, n)
	for i := range members {
		id := fmt.Sprintf("n%d", i)
		sh := &swapHandler{}
		ts := httptest.NewServer(sh)
		tss[i] = ts
		members[i] = cluster.Member{ID: id, Addr: strings.TrimPrefix(ts.URL, "http://")}
		cn.ids = append(cn.ids, id)
		cn.urls[id] = ts.URL
		cn.swaps[id] = sh
	}
	for i, m := range members {
		clu, err := cluster.New(cluster.Config{
			NodeID:        m.ID,
			Peers:         members,
			FanoutPerPeer: fanout,
			ProbeInterval: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Params: tinyParams(), DrainTimeout: 30 * time.Second, Cluster: clu}
		if mod != nil {
			mod(m.ID, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cn.swaps[m.ID].swap(s)
		cn.svcs[m.ID] = s
		_ = i
	}
	t.Cleanup(func() {
		for _, ts := range tss {
			ts.Close()
		}
		for _, s := range cn.svcs {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			s.Shutdown(ctx)
			cancel()
		}
	})
	return cn
}

func (cn *clusterNodes) get(t *testing.T, id, path string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, cn.urls[id]+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, body.Bytes()
}

func (cn *clusterNodes) clusterStats(t *testing.T, id string) cluster.Stats {
	t.Helper()
	st := cn.svcs[id].StatsSnapshot()
	if st.Cluster == nil {
		t.Fatalf("node %s has no cluster stats block", id)
	}
	return *st.Cluster
}

// TestSingleNodeByteIdentical: without a Cluster config nothing changes —
// no cluster statsz block, no node header, no internal endpoints.
func TestSingleNodeByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, nil)

	resp, body := get(t, ts, "/statsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statsz: %d", resp.StatusCode)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["cluster"]; ok {
		t.Fatal("single-node /statsz grew a cluster block")
	}
	if resp.Header.Get("X-Refsched-Node") != "" {
		t.Fatal("single-node response names a cluster node")
	}

	resp, body = get(t, ts, "/healthz")
	if bytes.Contains(body, []byte("node_id")) {
		t.Fatalf("single-node /healthz carries node_id: %s", body)
	}
	_ = resp

	if resp, _ := http.Post(ts.URL+"/v1/cells", "application/json", strings.NewReader("{}")); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/cells on single node = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/cache/somekey"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/cache on single node = %d, want 404", resp.StatusCode)
	}
}

// TestClusterFigureRouting: a figure GET routes to its consistent-hash
// owner from any entry node, the owner's id is visible in the response,
// and a repeat through a different entry node is a cache hit — the
// cluster concentrates one figure's cache on one node.
func TestClusterFigureRouting(t *testing.T) {
	want := expectedFig10(t)
	cn := newClusterNodes(t, 3, 0, nil)

	entry := cn.ids[0]
	resp, body := cn.get(t, entry, "/v1/figures/fig10", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("figure GET: %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("routed figure body differs from the serial reference render")
	}
	owner := resp.Header.Get("X-Refsched-Node")
	if owner == "" {
		t.Fatal("response does not name its node")
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first render X-Cache = %q", resp.Header.Get("X-Cache"))
	}

	// Every entry node agrees on the owner and gets the cached bytes.
	for _, id := range cn.ids {
		resp, body := cn.get(t, id, "/v1/figures/fig10", nil)
		if got := resp.Header.Get("X-Refsched-Node"); got != owner {
			t.Fatalf("entry %s routed fig10 to %s, first went to %s", id, got, owner)
		}
		if resp.Header.Get("X-Cache") != "hit" {
			t.Fatalf("entry %s repeat GET X-Cache = %q", id, resp.Header.Get("X-Cache"))
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("entry %s served different bytes", id)
		}
	}

	if entry != owner {
		if fw := cn.clusterStats(t, entry).JobsForwarded; fw == 0 {
			t.Fatal("entry node forwarded nothing")
		}
	}
	if rcv := cn.clusterStats(t, owner).JobsReceived; rcv == 0 {
		t.Fatal("owner received no forwarded requests")
	}
}

// TestClusterForwardedRejectionVerbatim: a structured 429 produced by
// the owner passes back through the entry node exactly — tenant, reason,
// retry estimate, and Retry-After header — not re-wrapped as a generic
// proxy error.
func TestClusterForwardedRejectionVerbatim(t *testing.T) {
	cn := newClusterNodes(t, 2, 0, func(id string, cfg *Config) {
		cfg.Tenant = TenantConfig{Rate: 0.0001, Burst: 1}
	})

	// Find a cell job owned by n1 so a POST to n0 crosses the hop.
	entry, remote := cn.svcs["n0"], ""
	var body []byte
	for seed := uint64(1); seed <= 200 && remote == ""; seed++ {
		raw, _ := json.Marshal(map[string]any{
			"cell":   map[string]any{"mix": "WL-6", "density": "8Gb", "bundle": "allbank"},
			"params": map[string]any{"seed": seed},
		})
		key, ok := entry.jobPlacementKey(raw)
		if !ok {
			t.Fatal("placement key did not compute")
		}
		if entry.cluster.Owner(key) == "n1" {
			remote, body = "n1", raw
		}
	}
	if remote == "" {
		t.Fatal("no n1-owned cell in 200 seeds")
	}

	post := func(tenant string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, cn.urls["n0"]+"/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	first := post("t-429")
	defer first.Body.Close()
	if first.StatusCode != http.StatusAccepted && first.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d", first.StatusCode)
	}
	if first.Header.Get("X-Refsched-Node") != "n1" {
		t.Fatalf("first POST handled by %q, want n1", first.Header.Get("X-Refsched-Node"))
	}

	// Token bucket exhausted (burst 1, refill ~never): the owner rejects.
	second := post("t-429")
	defer second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second POST: %d, want 429", second.StatusCode)
	}
	if second.Header.Get("X-Refsched-Node") != "n1" {
		t.Fatalf("429 produced by %q, want n1", second.Header.Get("X-Refsched-Node"))
	}
	if second.Header.Get("Retry-After") == "" {
		t.Fatal("forwarded 429 lost its Retry-After header")
	}
	var rej struct {
		Tenant     string  `json:"tenant"`
		Reason     string  `json:"reason"`
		RetryAfter float64 `json:"retry_after_s"`
	}
	if err := json.NewDecoder(second.Body).Decode(&rej); err != nil {
		t.Fatalf("forwarded 429 body not structured: %v", err)
	}
	if rej.Tenant != "t-429" || rej.Reason == "" || rej.RetryAfter <= 0 {
		t.Fatalf("forwarded 429 body re-wrapped or lossy: %+v", rej)
	}
}

// TestClusterJobProxyAndEvents: a job created through a forwarding entry
// node stays addressable there — status and the NDJSON event stream
// proxy to the owning node.
func TestClusterJobProxyAndEvents(t *testing.T) {
	cn := newClusterNodes(t, 2, 0, nil)

	entry := cn.svcs["n0"]
	var body []byte
	found := false
	for seed := uint64(1); seed <= 200 && !found; seed++ {
		raw, _ := json.Marshal(map[string]any{
			"cell":   map[string]any{"mix": "WL-6", "density": "8Gb", "bundle": "perbank"},
			"params": map[string]any{"seed": seed},
		})
		key, _ := entry.jobPlacementKey(raw)
		if entry.cluster.Owner(key) == "n1" {
			body, found = raw, true
		}
	}
	if !found {
		t.Fatal("no n1-owned cell in 200 seeds")
	}

	resp, err := http.Post(cn.urls["n0"]+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || ack.ID == "" {
		t.Fatalf("POST: %d id=%q", resp.StatusCode, ack.ID)
	}

	// The id is unknown locally on n0; status reads must proxy to n1.
	if entry.getJob(ack.ID) != nil {
		t.Fatal("forwarded job unexpectedly exists on the entry node")
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, b := cn.get(t, "n0", "/v1/jobs/"+ack.ID, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("proxied status: %d: %s", resp.StatusCode, b)
		}
		if resp.Header.Get("X-Refsched-Node") != "n1" {
			t.Fatalf("status served by %q, want n1", resp.Header.Get("X-Refsched-Node"))
		}
		var st JobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == JobDone {
			break
		}
		if st.State == JobFailed || time.Now().After(deadline) {
			t.Fatalf("job state %s: %s", st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The event stream proxies too: replay of a finished job ends with a
	// terminal state line.
	resp, b := cn.get(t, "n0", "/v1/jobs/"+ack.ID+"/events", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied events: %d", resp.StatusCode)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if len(lines) == 0 {
		t.Fatal("empty event stream")
	}
	sawDone := false
	for _, ln := range lines {
		var ev map[string]any
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatalf("event line not JSON: %q", ln)
		}
		if ev["state"] == string(JobDone) {
			sawDone = true
		}
	}
	if !sawDone {
		t.Fatalf("proxied stream never reported done: %s", b)
	}
}

// TestClusterJobReadsRouteByID: a clustered job id names the node that
// minted it, so every node — not only the one that forwarded the POST —
// proxies the job's status, events and timeline to its owner.
func TestClusterJobReadsRouteByID(t *testing.T) {
	cn := newClusterNodes(t, 3, 0, nil)

	entry := cn.svcs["n0"]
	var body []byte
	for seed := uint64(1); seed <= 200 && body == nil; seed++ {
		raw, _ := json.Marshal(map[string]any{
			"cell":   map[string]any{"mix": "WL-6", "density": "8Gb", "bundle": "perbank"},
			"params": map[string]any{"seed": seed},
		})
		if key, _ := entry.jobPlacementKey(raw); entry.cluster.Owner(key) == "n1" {
			body = raw
		}
	}
	if body == nil {
		t.Fatal("no n1-owned cell in 200 seeds")
	}
	resp, err := http.Post(cn.urls["n0"]+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || !strings.HasPrefix(ack.ID, "job-n1-") {
		t.Fatalf("POST via n0: %d id=%q, want an id minted by n1", resp.StatusCode, ack.ID)
	}

	// n2 never saw the POST: it routes each read by the id alone.
	read := func(suffix string) []byte {
		t.Helper()
		path := "/v1/jobs/" + ack.ID + suffix
		resp, b := cn.get(t, "n2", path, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s via n2: %d: %s", path, resp.StatusCode, b)
		}
		if node := resp.Header.Get("X-Refsched-Node"); node != "n1" {
			t.Fatalf("GET %s via n2 answered by %q, want n1", path, node)
		}
		return b
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st JobStatus
		if err := json.Unmarshal(read(""), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == JobDone {
			break
		}
		if st.State == JobFailed || time.Now().After(deadline) {
			t.Fatalf("job state %s: %s", st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if events := read("/events"); !bytes.Contains(events, []byte(`"state":"done"`)) {
		t.Fatalf("event stream via n2 never reported done: %s", events)
	}
	if tl := read("/timeline"); !json.Valid(tl) {
		t.Fatalf("timeline via n2 is not JSON: %s", tl)
	}
}

// TestClusterRemoteCacheFallback: a node that must handle a figure it
// does not own (forwarded marker set, as after a degraded hop) asks the
// owner's cache before simulating, and serves the owner's bytes as a
// cache hit.
func TestClusterRemoteCacheFallback(t *testing.T) {
	want := expectedFig10(t)
	cn := newClusterNodes(t, 2, 0, nil)

	// Warm the owner through normal routing.
	resp, _ := cn.get(t, "n0", "/v1/figures/fig10", nil)
	owner := resp.Header.Get("X-Refsched-Node")
	other := "n0"
	if owner == "n0" {
		other = "n1"
	}

	// Force the non-owner to handle it locally: a marked request is never
	// re-routed (one hop max).
	resp, body := cn.get(t, other, "/v1/figures/fig10", map[string]string{"X-Refsched-Forwarded": "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("marked GET: %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Refsched-Node"); got != other {
		t.Fatalf("marked request escaped to %q, want local %q", got, other)
	}
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("cross-shard fallback X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body, want) {
		t.Fatal("cross-shard body differs from the reference render")
	}

	if hits := cn.clusterStats(t, other).RemoteCacheHits; hits != 1 {
		t.Fatalf("remote_cache_hits = %d, want 1", hits)
	}
	if served := cn.clusterStats(t, owner).CacheServed; served != 1 {
		t.Fatalf("owner cache_lookups_served = %d, want 1", served)
	}
	// The simulation never ran the second time around.
	if sims := cn.svcs[other].StatsSnapshot().Simulations; sims != 0 {
		t.Fatalf("non-owner simulated %d times despite the fallback", sims)
	}
}

// TestClusterFanoutByteIdentical: a sweep executed with cell fan-out
// returns exactly the single-node bytes, with cells demonstrably
// executed on the peer.
func TestClusterFanoutByteIdentical(t *testing.T) {
	want := expectedFig10(t)
	cn := newClusterNodes(t, 2, 2, nil)

	// Marked request: n0 must run the sweep itself, fanning cells to n1.
	resp, body := cn.get(t, "n0", "/v1/figures/fig10", map[string]string{"X-Refsched-Forwarded": "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fanned GET: %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("fanned-out figure differs from the serial reference render")
	}

	st0 := cn.clusterStats(t, "n0")
	if st0.CellsDispatched == 0 {
		t.Fatal("no cells were dispatched to the peer")
	}
	if st0.CellsDispatched > st0.CellsReclaimed {
		// At least one dispatch actually succeeded remotely.
		if exec := cn.clusterStats(t, "n1").CellsExecuted; exec == 0 {
			t.Fatal("peer executed no cells despite successful dispatches")
		}
	}
}

// TestClusterFanoutPeerDownByteIdentical: when the peer answers but
// refuses (and is then marked down), every dispatched cell is reclaimed
// locally and the sweep still renders byte-identically.
func TestClusterFanoutPeerDownByteIdentical(t *testing.T) {
	want := expectedFig10(t)
	cn := newClusterNodes(t, 2, 2, nil)

	// Break n1: everything (cells, probes) now answers 503.
	cn.swaps["n1"].swap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))

	resp, body := cn.get(t, "n0", "/v1/figures/fig10", map[string]string{"X-Refsched-Forwarded": "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded GET: %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("degraded sweep differs from the serial reference render")
	}

	st0 := cn.clusterStats(t, "n0")
	if st0.CellsDispatched != st0.CellsReclaimed {
		t.Fatalf("dispatched %d != reclaimed %d with a dead peer",
			st0.CellsDispatched, st0.CellsReclaimed)
	}
}

// TestClusterFanoutSnapshotResume: a peer that cannot finish a
// dispatched cell but checkpointed it ships the snapshot back, and the
// coordinator resumes the cell from mid-run instead of recomputing —
// with the figure still byte-identical to the serial reference. The
// peer is simulated by an interceptor that runs each cell to its
// second checkpoint boundary (exactly the drain path's behaviour, made
// deterministic) and answers 503 + snapshot.
func TestClusterFanoutSnapshotResume(t *testing.T) {
	want := expectedFig10(t)
	cn := newClusterNodes(t, 2, 2, nil)

	s1 := cn.svcs["n1"]
	cn.swaps["n1"].swap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !(r.Method == http.MethodPost && r.URL.Path == "/v1/cells") {
			s1.ServeHTTP(w, r) // probes etc: the node looks healthy
			return
		}
		var cr cluster.CellRequest
		if err := json.NewDecoder(r.Body).Decode(&cr); err != nil {
			t.Error(err)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		p := cr.Params()
		boundaries := 0
		p.Store = &harness.CellStore{Preempt: func() error {
			if boundaries++; boundaries >= 2 {
				return errPreempted
			}
			return nil
		}}
		if _, err := harness.RunCell(p, cr.Mix, cr.Density, cr.Bundle, cr.Hot); err == nil {
			t.Error("interceptor cell ran to completion instead of preempting")
		}
		st := p.Store.TakeSnapshot(cr.Key())
		if st == nil {
			t.Error("preempted cell left no snapshot")
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Header().Set(cluster.CellSnapshotHeader, "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		if err := core.EncodeSnapshot(w, st); err != nil {
			t.Error(err)
		}
	}))

	resp, body := cn.get(t, "n0", "/v1/figures/fig10", map[string]string{"X-Refsched-Forwarded": "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resumed GET: %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("figure with snapshot-resumed cells differs from the serial reference render")
	}

	st0 := cn.clusterStats(t, "n0")
	if st0.CellsDispatched == 0 {
		t.Fatal("no cells were dispatched to the peer")
	}
	if st0.CellsResumed != st0.CellsDispatched {
		t.Fatalf("dispatched %d cells but resumed %d — some recomputed from scratch",
			st0.CellsDispatched, st0.CellsResumed)
	}
}
