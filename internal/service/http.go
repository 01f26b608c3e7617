package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"refsched/internal/harness"
	"refsched/internal/metrics"
	"refsched/internal/timeline"
)

// reqInfo identifies one HTTP request for the access log and for
// timeline correlation; handlers read it from the request context.
type reqInfo struct {
	id    string
	start time.Time
}

type reqInfoKey struct{}

func requestInfo(ctx context.Context) reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(reqInfo)
	return ri
}

// statusWriter captures the response status for the access log while
// passing streaming flushes through (the NDJSON events endpoint).
// wrote tracks whether anything reached the wire, which is what decides
// whether a recovered panic can still be turned into a clean 500.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
	}
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer's
// deadline controls through this wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// ServeHTTP tags every request with an id, dispatches it, and writes
// one structured access-log line: method, path, status, duration, and
// cache disposition (for endpoints that set X-Cache).
//
// It is also the daemon's panic boundary: a panicking handler is
// recovered into a 500 carrying the request id (when nothing has been
// written yet), counted on http.panics, and logged with its stack —
// one bad request must not take down a daemon holding a warm cache and
// a queue of other tenants' work.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ri := reqInfo{id: fmt.Sprintf("req-%06d", s.reqSeq.Add(1)), start: time.Now()}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			s.log.Error("handler panic",
				"request_id", ri.id, "method", r.Method, "path", r.URL.Path,
				"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			if !sw.wrote {
				writeJSON(sw, http.StatusInternalServerError,
					map[string]string{"error": "internal server error", "request_id": ri.id})
			}
		}
		// Logged from the deferred path so panicking requests still get
		// their access-log line.
		attrs := []any{
			"request_id", ri.id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration_ms", float64(time.Since(ri.start).Microseconds()) / 1000,
		}
		if cache := sw.Header().Get("X-Cache"); cache != "" {
			attrs = append(attrs, "cache", cache)
		}
		s.log.Info("request", attrs...)
	}()
	r = r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri))
	if s.cluster.Enabled() {
		// Every response names its node; a forwarded response's header
		// copy overwrites this with the executing node's id, so the
		// value always names who actually handled the request.
		sw.Header().Set(nodeHeader, s.cluster.Self().ID)
		if s.routeCluster(sw, r, ri) {
			return
		}
	}
	s.mux.ServeHTTP(sw, r)
}

// retryAfterSeconds estimates when queue space should free up: the
// queue's current backlog paced by the recent mean job latency across
// workers, clamped to [1s, 600s].
func (s *Server) retryAfterSeconds() int {
	meanMS := 1000.0
	s.figMu.Lock()
	var n uint64
	var sum float64
	for _, fm := range s.figs {
		n += fm.lat.Count()
		sum += fm.lat.Mean() * float64(fm.lat.Count())
	}
	s.figMu.Unlock()
	if n > 0 {
		meanMS = sum / float64(n)
	}
	secs := int(meanMS/1000*float64(s.queue.len())/float64(s.cfg.Workers)) + 1
	if secs < 1 {
		secs = 1
	}
	if secs > 600 {
		secs = 600
	}
	return secs
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// writeEnqueueError maps an admission or validation failure onto the
// wire. Every rejection that a client should retry carries a
// structured body — which tenant hit which limit, and when to come
// back — so load generators and SDKs can distinguish "queue is full"
// from "you personally are over budget" from "the daemon is browned
// out" without parsing prose.
func (s *Server) writeEnqueueError(w http.ResponseWriter, err error, tenant string) {
	var ae *admissionError
	switch {
	case errors.As(err, &ae):
		retry := ae.retryAfter
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":         err.Error(),
			"tenant":        ae.tenant,
			"reason":        ae.reason,
			"retry_after_s": retry,
		})
	case errors.Is(err, errQueueFull):
		retry := s.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":         err.Error(),
			"tenant":        tenant,
			"reason":        "queue_full",
			"retry_after_s": retry,
		})
	case errors.Is(err, errDraining):
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	}
}

// handleEnqueue is POST /v1/jobs.
func (s *Server) handleEnqueue(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	if err := s.tenants.admitRate(tenant); err != nil {
		s.writeEnqueueError(w, err, tenant)
		return
	}
	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	ri := requestInfo(r.Context())
	j, deduped, err := s.enqueue(req, ri.id, admitContext{tenant: tenant})
	if err != nil {
		s.writeEnqueueError(w, err, tenant)
		return
	}
	recordRequestSpan(j, ri, "POST /v1/jobs", deduped)
	st := j.snapshot()
	status := http.StatusAccepted
	if deduped || st.State == JobDone {
		status = http.StatusOK
	}
	writeJSON(w, status, map[string]any{"id": j.id, "state": st.State, "deduped": deduped})
}

// recordRequestSpan puts one HTTP request onto a job's request track:
// a span from the request's start (clamped to the job's creation for
// the creating request) to now, carrying the request id. Coalesced
// requests are tagged so dedup fan-in is visible.
func recordRequestSpan(j *job, ri reqInfo, name string, deduped bool) {
	ts := j.tsUS(ri.start)
	e := timeline.Event{Ph: timeline.PhaseSpan,
		Ts: ts, Dur: j.sinceUS() - ts,
		Pid: tlPidService, Tid: tlTidRequests, Name: name,
		StrName: "req", Str: ri.id}
	if deduped {
		e.Arg1Name, e.Arg1 = "deduped", 1
	}
	j.tl.Emit(e)
}

// handleJobTimeline is GET /v1/jobs/{id}/timeline: the job's
// wall-clock trace as Chrome trace-event JSON, loadable in Perfetto.
// Available while the job runs (a consistent snapshot) and after it
// finishes.
func (s *Server) handleJobTimeline(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	j.tl.WriteTo(w)
}

// handleJobStatus is GET /v1/jobs/{id}.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// eventWriteTimeout bounds each NDJSON write to a streaming
// subscriber: a client that accepts the connection but stops reading
// gets its stream torn down once the socket buffer fills, instead of
// parking a handler goroutine (and its subscription) forever.
const eventWriteTimeout = 15 * time.Second

// handleJobEvents is GET /v1/jobs/{id}/events: NDJSON progress,
// replaying history then streaming live until the job finishes. Slow
// and gone consumers both release their resources: each write carries
// a deadline (see eventWriteTimeout), a disconnect cancels the
// request context, and either way the deferred cancel detaches the
// hub subscription.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.getJob(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	// Writers that cannot set deadlines (test recorders) just skip the
	// slow-consumer bound; the disconnect path still applies.
	defer rc.SetWriteDeadline(time.Time{})
	writeLine := func(line []byte) bool {
		rc.SetWriteDeadline(time.Now().Add(eventWriteTimeout))
		if _, err := w.Write(line); err != nil {
			return false
		}
		_, err := w.Write([]byte("\n"))
		return err == nil
	}

	replay, events, cancel := j.hub.subscribe()
	defer cancel()
	for _, line := range replay {
		if !writeLine(line) {
			return
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
	for {
		select {
		case line, ok := <-events:
			if !ok {
				return
			}
			if !writeLine(line) {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleFigure is GET /v1/figures/{name}: the synchronous
// cached-or-computed path. The response body is byte-identical to what
// cmd/experiments prints for the same target and parameters.
//
// ?fidelity=approx switches to the two-tier first-response mode: the
// figure is answered from the analytical model (milliseconds, served
// with "X-Fidelity: approx"), and the exact sweep is enqueued in the
// background at batch priority so a later exact request — or a poll of
// the job id returned in X-Refsched-Exact-Job — finds it computed and
// cached. The default (and ?fidelity=exact) serves the exact result
// with "X-Fidelity: exact".
//
// While the daemon is browned out, a request that did not pin a
// fidelity is automatically downgraded to the approx tier and answered
// in milliseconds, marked "X-Fidelity: approx" plus "Degraded: true";
// no background exact sweep is enqueued (that would feed the very
// queue pressure brownout is shedding). An explicit ?fidelity=exact is
// always honored.
//
// ?timeout_ms bounds the synchronous wait: past it the request gets a
// 504 carrying the job id, while the job itself keeps running and
// warming the cache for a later poll.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	tenant := tenantOf(r)
	if err := s.tenants.admitRate(tenant); err != nil {
		s.writeEnqueueError(w, err, tenant)
		return
	}
	priority := 10 // interactive requests outrank default batch jobs
	if pstr := r.URL.Query().Get("priority"); pstr != "" {
		p, err := strconv.Atoi(pstr)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad priority"})
			return
		}
		priority = p
	}
	var timeout <-chan time.Time
	if tstr := r.URL.Query().Get("timeout_ms"); tstr != "" {
		ms, err := strconv.Atoi(tstr)
		if err != nil || ms <= 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad timeout_ms"})
			return
		}
		t := time.NewTimer(time.Duration(ms) * time.Millisecond)
		defer t.Stop()
		timeout = t.C
	}
	fidelity := r.URL.Query().Get("fidelity")
	degraded := false
	switch fidelity {
	case "":
		fidelity = harness.ModeExact
		if s.brown.isEngaged() {
			// Graceful degradation: answer from the analytical tier
			// instead of joining an already-deep queue. Every figure
			// target is approx-servable (see TestApproxCoversAllFigures).
			fidelity = harness.ModeApprox
			degraded = true
			s.brown.degraded.Add(1)
		}
	case harness.ModeExact:
	case harness.ModeApprox:
	default:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad fidelity (want exact or approx)"})
		return
	}
	ri := requestInfo(r.Context())
	req := Request{Figure: name, Priority: priority}
	if fidelity == harness.ModeApprox {
		mode := harness.ModeApprox
		req.Params = &ParamOverrides{Mode: &mode}
		// Kick the exact sweep off behind the fast answer — unless this
		// response is already a brownout downgrade, in which case
		// enqueueing exact work would feed the overload being shed.
		// Enqueue failures (queue full, draining) only cost the
		// warm-up: the approx response below still succeeds.
		if !degraded {
			if ej, _, err := s.enqueue(Request{Figure: name}, ri.id, admitContext{tenant: tenant}); err == nil {
				w.Header().Set("X-Refsched-Exact-Job", ej.id)
			}
		}
	}
	j, deduped, err := s.enqueue(req, ri.id, admitContext{tenant: tenant})
	if err != nil {
		s.writeEnqueueError(w, err, tenant)
		return
	}
	if degraded {
		j.tl.Instant(tlPidService, tlTidJob, "brownout-degraded", j.sinceUS())
	}
	select {
	case <-j.done:
	case <-timeout:
		// The wait bound fired first; the job still completes and warms
		// the cache, and the client can poll it by id.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{
			"error": "figure not ready within timeout_ms", "job": j.id})
		return
	case <-r.Context().Done():
		// Client gave up; the job still completes and warms the cache.
		return
	}
	// Emitted after the wait, so the request span brackets the whole
	// synchronous compute-or-cached exchange.
	recordRequestSpan(j, ri, "GET /v1/figures/"+name, deduped)
	state, body, jerr := j.result()
	st := j.snapshot()
	if degraded {
		w.Header().Set("Degraded", "true")
	}
	switch state {
	case JobDone:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Fidelity", fidelity)
		if st.CacheHit {
			w.Header().Set("X-Cache", "hit")
		} else {
			w.Header().Set("X-Cache", "miss")
		}
		w.Write(body)
	case JobQuarantined:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Fidelity", fidelity)
		w.Header().Set("X-Refsched-Quarantined", strconv.Itoa(len(st.Quarantined)))
		w.Write(body)
	case JobExpired:
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{"error": jerr.Error(), "job": j.id})
	default:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": jerr.Error()})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

// handleMetricsz is GET /metricsz: the registry in Prometheus text
// exposition format, for scraping. Counter families carry a refschedd_
// namespace; indexed scopes (per-figure state) become labels, e.g.
// refschedd_figure_sim_events{figure="fig10"}.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.WritePrometheus(w, s.reg.Snapshot(), "refschedd")
}
