package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"refsched/internal/cluster"
	"refsched/internal/core"
	"refsched/internal/harness"
	"refsched/internal/runner"
	"refsched/internal/timeline"
)

// Cluster-internal HTTP headers.
const (
	// forwardedHeader marks a request that already crossed one
	// node-to-node hop; its value is the forwarding node's id. A marked
	// request is always handled locally — one hop maximum, no loops.
	forwardedHeader = "X-Refsched-Forwarded"
	// nodeHeader names the node that produced a response. Forwarded
	// responses carry the executing node's value (header copy overwrites
	// the entry node's), so clients and tests can see placement.
	nodeHeader = "X-Refsched-Node"
	// fwdReqHeader carries the entry node's request id across the hop,
	// joining the two access logs and timelines.
	fwdReqHeader = "X-Refsched-Req"
)

// tlPidRemote is the job-timeline process grouping remote-cell spans:
// one thread per fan-out lane (peer × slot), each span tagged with the
// peer node id. See the service track constants in job.go.
const tlPidRemote = 3

// remoteCacheTimeout bounds the single cross-shard cache GET a miss
// performs before simulating. Generous relative to a cache read,
// tiny relative to any simulation.
const remoteCacheTimeout = 5 * time.Second

// maxRouteBody bounds how much of a POST /v1/jobs body the router reads
// to compute the placement key (the enqueue handler has the same
// practical bound: requests are small JSON).
const maxRouteBody = 1 << 20

// newClusterTimeline builds the node-level recorder behind
// GET /v1/cluster/timeline: forward spans and received remote-cell
// spans, timestamped in wall microseconds since daemon start.
func newClusterTimeline(nodeID string) *timeline.Recorder {
	rec := timeline.NewRecorder(nil, 4096)
	rec.SetProcessName(tlPidService, "refschedd "+nodeID)
	rec.SetThreadName(tlPidService, tlTidRequests, "forwards")
	rec.SetThreadName(tlPidService, tlTidJob, "remote cells in")
	return rec
}

// clusterSinceUS is the cluster-timeline clock.
func (s *Server) clusterSinceUS(t time.Time) uint64 {
	if d := t.Sub(s.start); d > 0 {
		return uint64(d.Microseconds())
	}
	return 0
}

// routeCluster is the routing middleware: called by ServeHTTP before
// mux dispatch when clustering is enabled, it decides whether this
// request belongs to another node and, if so, forwards it there. It
// reports whether it fully handled (wrote) the response.
//
// Placement is by consistent hash of the same request key the cache and
// single-flight index use, so identical requests from any entry node
// concentrate on one owner — that is what makes the cluster-wide cache
// and dedup effective. Figure GETs route by the figure's base-parameter
// key regardless of fidelity or query knobs, so the approx and exact
// tiers of one figure land on the same node. A request bearing the
// forwarded marker is never routed again (one hop max), and when every
// preferred remote node is down the request is simply handled locally —
// degraded placement, never refusal.
func (s *Server) routeCluster(w http.ResponseWriter, r *http.Request, ri reqInfo) bool {
	if from := r.Header.Get(forwardedHeader); from != "" {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" ||
			r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/figures/") {
			s.cluster.JobsReceived.Add(1)
		}
		return false
	}
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		body, err := io.ReadAll(io.LimitReader(r.Body, maxRouteBody))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "reading request body: " + err.Error()})
			return true
		}
		// The local handler (routed-to or fallen-back-to) re-reads the
		// body from this replacement.
		r.Body = io.NopCloser(bytes.NewReader(body))
		key, ok := s.jobPlacementKey(body)
		if !ok {
			return false // malformed body: let the handler produce its 400
		}
		m, self := s.cluster.RouteOwner(key)
		if self {
			return false
		}
		return s.forward(w, r, ri, m, body)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/figures/"):
		name, ok := harness.CanonicalFigure(strings.TrimPrefix(r.URL.Path, "/v1/figures/"))
		if !ok {
			return false
		}
		m, self := s.cluster.RouteOwner(figureKey(name, s.cfg.Params))
		if self {
			return false
		}
		return s.forward(w, r, ri, m, nil)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		// A clustered job id names the node that minted it, so status,
		// events and timeline reads proxy there from any node. Ids of
		// this node, single-node ids and ids of a down node stay local.
		id, _, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/")
		node, _, _ := splitJobID(id)
		if node == s.cluster.Self().ID || !s.cluster.Alive(node) {
			return false
		}
		for _, m := range s.cluster.Members() {
			if m.ID == node {
				return s.forward(w, r, ri, m, nil)
			}
		}
		return false
	}
	return false
}

// jobPlacementKey computes the key a POST /v1/jobs body resolves to,
// through the same resolve enqueue uses. ok is false when the body does
// not decode or resolve (the local handler then rejects it).
func (s *Server) jobPlacementKey(body []byte) (string, bool) {
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		return "", false
	}
	_, _, key, err := s.resolve(req)
	return key, err == nil
}

// forward proxies r to m and copies the response back verbatim —
// status, headers, and body, streamed with per-chunk flushes so NDJSON
// event streams pass through live. Verbatim matters beyond streaming:
// a structured 429 from the owner (tenant, reason, retry_after_s,
// Retry-After) must reach the client exactly as written, not re-wrapped
// into an anonymous proxy error. A transport failure before the
// upstream response arrives falls back to local handling (return
// false) and counts against the peer's health.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, ri reqInfo, m cluster.Member, body []byte) bool {
	t0 := time.Now()
	var reqBody io.Reader
	if body != nil {
		reqBody = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method,
		"http://"+m.Addr+r.URL.RequestURI(), reqBody)
	if err != nil {
		return false
	}
	out.Header = r.Header.Clone()
	out.Header.Set(forwardedHeader, s.cluster.Self().ID)
	out.Header.Set(fwdReqHeader, ri.id)

	resp, err := s.cluster.Client().Do(out)
	if err != nil {
		s.cluster.ObservePeer(m.ID, false)
		s.cluster.ForwardFallbacks.Add(1)
		s.log.Warn("forward failed, handling locally",
			"request_id", ri.id, "peer", m.ID, "err", err.Error())
		if body != nil {
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		return false
	}
	defer resp.Body.Close()
	s.cluster.ObservePeer(m.ID, true)
	s.cluster.MarkForwarded(m.ID)

	hdr := w.Header()
	for k, vs := range resp.Header {
		hdr[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				break
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			break
		}
	}

	ts := s.clusterSinceUS(t0)
	s.clusterTL.Emit(timeline.Event{Ph: timeline.PhaseSpan,
		Ts: ts, Dur: s.clusterSinceUS(time.Now()) - ts,
		Pid: tlPidService, Tid: tlTidRequests,
		Name:     "forward " + r.Method + " " + r.URL.Path,
		Arg1Name: "status", Arg1: int64(resp.StatusCode),
		StrName: "peer", Str: m.ID})
	return true
}

// remoteCacheLookup is the cross-shard fallback a local cache miss
// performs before simulating: one GET to the first alive node in the
// key's ownership order (excluding this one — which covers both a
// non-owner handling degraded traffic and a freshly restarted owner
// whose successor held the fort). Never a broadcast. It returns the
// cached body and the answering peer on a hit.
func (s *Server) remoteCacheLookup(key string) (body []byte, peer string, ok bool) {
	m, ok := s.cluster.FallbackOwner(key)
	if !ok {
		return nil, "", false
	}
	ctx, cancel := context.WithTimeout(s.runCtx, remoteCacheTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+m.Addr+"/v1/cache/"+url.PathEscape(key), nil)
	if err != nil {
		return nil, "", false
	}
	resp, err := s.cluster.Client().Do(req)
	if err != nil {
		s.cluster.ObservePeer(m.ID, false)
		s.cluster.RemoteCacheMisses.Add(1)
		return nil, "", false
	}
	defer resp.Body.Close()
	s.cluster.ObservePeer(m.ID, true)
	if resp.StatusCode != http.StatusOK {
		s.cluster.RemoteCacheMisses.Add(1)
		return nil, "", false
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, s.cfg.CacheBytes))
	if err != nil || len(b) == 0 {
		s.cluster.RemoteCacheMisses.Add(1)
		return nil, "", false
	}
	s.cluster.RemoteCacheHits.Add(1)
	return b, m.ID, true
}

// handleCacheGet is GET /v1/cache/{key} (cluster-internal): the raw
// cached body for one request key, or 404. This is the single-probe
// target of a peer's cross-shard fallback.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	// Contains-first mirrors execute's re-check so probes for keys this
	// node never computed do not distort the local miss counter.
	if s.memo.Contains(key) {
		if body, ok := s.memo.Get(key); ok {
			s.cluster.CacheServed.Add(1)
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.Write(body)
			return
		}
	}
	writeJSON(w, http.StatusNotFound, map[string]string{"error": "not cached"})
}

// handleCellExec is POST /v1/cells (cluster-internal): execute one
// sweep cell on behalf of a coordinating peer and return the
// core.Report as JSON. The cell runs through the standard fault
// boundary (harness.RunCell) under this node's priority gate at the
// coordinating job's priority, so remote cells compete fairly with
// local jobs for simulation slots. A failure answers 500 and the
// coordinator re-runs the cell locally — the error detail here is for
// logs; the authoritative typed error comes from the local re-run.
func (s *Server) handleCellExec(w http.ResponseWriter, r *http.Request) {
	var cr cluster.CellRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxRouteBody))
	if err := dec.Decode(&cr); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad cell request: " + err.Error()})
		return
	}
	p := cr.Params()
	spec, err := p.Cell(cr.Mix, cr.Density, cr.Bundle, cr.Hot)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	cell := runner.Cell{Mix: cr.Mix, Density: cr.Density, Bundle: cr.Bundle, Hot: cr.Hot}
	t0 := time.Now()
	// The request context is both cancellation tiers: if the
	// coordinator gives up (or reclaims the cell after a timeout), the
	// engine aborts at its next checkpoint instead of simulating for a
	// client that stopped listening.
	p.Ctx = r.Context()
	p.HardCtx = r.Context()
	p.CellRunner = s.remoteCellRunner(cr.Priority)
	// The cell is answered from this node's memo when it holds the
	// cell, and recorded there when it simulates. It runs under a store
	// of its own: an exact cell (a bank-confined cell runs exact on
	// either tier) checkpoints, so a node that starts draining mid-cell
	// yields at its next boundary and ships the partial progress back
	// (see the snapshot response below) instead of discarding it.
	defer s.logMemoErr()
	p.Store = &harness.CellStore{Memo: s.memo, Preempt: func() error {
		if s.draining.Load() || r.Context().Err() != nil {
			return errPreempted
		}
		return nil
	}}

	rep, err := harness.RunCell(p, spec.Mix, spec.Density, spec.Bundle, spec.Hot)

	ts := s.clusterSinceUS(t0)
	ev := timeline.Event{Ph: timeline.PhaseSpan,
		Ts: ts, Dur: s.clusterSinceUS(time.Now()) - ts,
		Pid: tlPidService, Tid: tlTidJob, Name: "remote-cell " + cell.String(),
		Arg1Name: "priority", Arg1: int64(cr.Priority),
		StrName: "peer", Str: cr.Origin}
	if err != nil {
		ev.Arg2Name, ev.Arg2 = "failed", 1
	}
	s.clusterTL.Emit(ev)

	if err != nil {
		s.log.Warn("remote cell failed",
			"cell", cell.String(),
			"origin", cr.Origin, "err", err.Error())
		// A failure that left a checkpoint behind (this node draining,
		// or any abort past a boundary snapshot) ships the partial
		// progress to the coordinator, which resumes the cell locally
		// instead of recomputing it. An encode failure mid-body is
		// unrecoverable over HTTP; the coordinator's decode rejects the
		// torn snapshot (CRC) and falls back to the full re-run.
		if st := p.Store.TakeSnapshot(spec.Key()); st != nil {
			w.Header().Set(cluster.CellSnapshotHeader, "1")
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusServiceUnavailable)
			if werr := core.EncodeSnapshot(w, st); werr != nil {
				s.log.Warn("shipping cell snapshot failed",
					"origin", cr.Origin, "err", werr.Error())
			}
			return
		}
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	s.cluster.CellsExecuted.Add(1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rep)
}

// remoteCellRunner is the CellRunner for cells executed on behalf of a
// peer: simulation counting plus the local priority gate at the
// coordinating job's priority, taken around each cell as cellRunner
// takes it — remote cells wait their turn exactly like local ones.
func (s *Server) remoteCellRunner(priority int) harness.CellRunner {
	return func(ctx context.Context, _ string, rjobs []runner.Job[*core.Report], opts runner.Options[*core.Report]) (*runner.Batch[*core.Report], error) {
		s.simulations.Add(1)
		s.gateCells(ctx, priority, rjobs, nil)
		return runner.RunBatch(ctx, rjobs, opts)
	}
}

// remoteCellObserver puts each remote-cell dispatch on the job's
// timeline: a span per dispatch on the fan-out lane's track, tagged
// with the peer node id (reclaimed dispatches are marked so a degraded
// sweep is visible at a glance).
func (s *Server) remoteCellObserver(j *job) cluster.CellObserver {
	return func(ev cluster.CellEvent) {
		ts := j.tsUS(ev.Start)
		e := timeline.Event{Ph: timeline.PhaseSpan,
			Ts: ts, Dur: j.tsUS(ev.End) - ts,
			Pid: tlPidRemote, Tid: int32(ev.Lane),
			Name:    "remote " + ev.Cell.String(),
			StrName: "peer", Str: ev.Peer}
		if !ev.OK {
			e.Arg1Name, e.Arg1 = "reclaimed", 1
		}
		j.tl.Emit(e)
	}
}

// handleClusterTimeline is GET /v1/cluster/timeline: the node-level
// trace of forwards and received remote cells, as Chrome trace-event
// JSON.
func (s *Server) handleClusterTimeline(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.clusterTL.WriteTo(w)
}

// registerClusterMetrics adds the cluster block to the daemon's
// registry (and therefore /metricsz): aggregate forwarding, cache
// fallback, and fan-out counters, plus a per-peer liveness gauge.
func (s *Server) registerClusterMetrics() {
	c := s.cluster
	cl := s.reg.Root().Sub("cluster")
	cl.CounterFunc("jobs_forwarded", c.JobsForwarded.Load)
	cl.CounterFunc("jobs_received", c.JobsReceived.Load)
	cl.CounterFunc("forward_fallbacks", c.ForwardFallbacks.Load)
	cl.CounterFunc("remote_cache_hits", c.RemoteCacheHits.Load)
	cl.CounterFunc("remote_cache_misses", c.RemoteCacheMisses.Load)
	cl.CounterFunc("cache_lookups_served", c.CacheServed.Load)
	cl.CounterFunc("fanout_cells_dispatched", c.CellsDispatched.Load)
	cl.CounterFunc("fanout_cells_reclaimed", c.CellsReclaimed.Load)
	cl.CounterFunc("fanout_cells_resumed", c.CellsResumed.Load)
	cl.CounterFunc("remote_cells_executed", c.CellsExecuted.Load)
	for _, m := range c.Members() {
		if m.ID == c.Self().ID {
			continue
		}
		id := m.ID
		cl.Subf("peer[%s]", id).GaugeFunc("up", func() float64 {
			if c.Alive(id) {
				return 1
			}
			return 0
		})
	}
}
