package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nocdeploy/internal/obs"
	"nocdeploy/internal/runner"
	"nocdeploy/internal/spec"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/solve                 solve an instance (body: spec.Instance JSON)
//	GET  /v1/jobs/{id}             poll an async job
//	GET  /v1/jobs/{id}/trace       the job's per-request trace slice (JSONL)
//	GET  /v1/jobs/{id}/events      live SSE stream of the job's solve (see stream.go)
//	GET  /v1/requests/{id}/trace   a request's trace slice by request ID (JSONL)
//	GET  /v1/requests/{id}/events  live SSE stream by request ID (?kinds= filter)
//	GET  /v1/archive               archived solve summaries (filters: instance,
//	                               solver, outcome, since, until, limit)
//	GET  /v1/archive/stats         per-solver aggregates + store accounting
//	GET  /v1/archive/{id}          one full archived solve record
//	POST /v1/archive/advise        advisor decision for an instance (no solve)
//	GET  /healthz                  liveness
//	GET  /metrics                 metrics: obs.Metrics JSON snapshot by
//	                              default; Prometheus text exposition
//	                              (v0.0.4) with Accept: text/plain or
//	                              ?format=prom
//
// POST /v1/solve query parameters (all optional):
//
//	solver     heuristic (default) | repair | anneal | optimal | portfolio |
//	           auto (archive advisor picks from this instance's history;
//	           the response carries X-Advised-Solver and X-Advise-Basis)
//	objective  be (default) | me
//	seed       solver tie-break seed (default 1)
//	timeout    per-request solve budget, e.g. 50ms (or X-Solve-Timeout)
//	mode       sync (default) | async — async returns 202 + a job id
//
// Every response carries X-Request-ID, minted at admission; the same ID
// tags every trace event the request's solve emits. Sync solve responses
// additionally carry X-Cache (hit|miss|coalesced), X-Solver,
// X-Solve-Feasible and X-Solve-Cancelled.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/requests/{id}/trace", s.handleRequestTrace)
	mux.HandleFunc("GET /v1/requests/{id}/events", s.handleRequestEvents)
	mux.HandleFunc("GET /v1/archive", s.handleArchiveList)
	mux.HandleFunc("GET /v1/archive/stats", s.handleArchiveStats)
	mux.HandleFunc("GET /v1/archive/{id}", s.handleArchiveGet)
	mux.HandleFunc("POST /v1/archive/advise", s.handleArchiveAdvise)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.observeRequests(mux)
}

// statusWriter captures the response status for metrics and the access
// log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flusher through this middleware — the SSE endpoints flush per event,
// and a wrapper that swallowed Flush would buffer the whole stream.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// observeRequests is the request-observability middleware: it mints the
// request ID, exposes it in X-Request-ID, threads a reqInfo through the
// context for stage accounting, observes the end-to-end latency of solve
// requests, emits the req.done trace event and writes the access-log
// line.
func (s *Service) observeRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ri := &reqInfo{id: s.nextRequestID(), start: start}
		w.Header().Set("X-Request-ID", ri.id)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(withReqInfo(r.Context(), ri)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		if isSolveRoute(r) && !ri.async {
			s.met.Observe(stageMetric(StageE2E), elapsed.Seconds())
			if tr := s.trace.WithRequest(ri.id); tr.Enabled() {
				tr.Emit(obs.Event{Kind: obs.ReqDone, Phase: ri.outcome, Dur: elapsed.Seconds()})
			}
		}
		s.alog.log(ri.record(r.Method, r.URL.Path, sw.status, elapsed))
	})
}

func isSolveRoute(r *http.Request) bool {
	return r.Method == http.MethodPost && r.URL.Path == "/v1/solve"
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func (s *Service) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	s.met.Add(obs.Key("http.status", "code", strconv.Itoa(code)), 1)
	// A failed write means the client went away; nothing useful to do.
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Service) writeError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	s.writeJSON(w, code, apiError{Error: err.Error()})
}

// errorStatus maps service errors onto HTTP status codes.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, runner.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrClosed), errors.Is(err, runner.ErrPoolClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrNoSolution):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// parseSolveRequest decodes the body and query into a SolveRequest.
func parseSolveRequest(r *http.Request) (SolveRequest, error) {
	var req SolveRequest
	var inst spec.Instance
	if err := json.NewDecoder(r.Body).Decode(&inst); err != nil {
		return req, errors.Join(ErrBadRequest, err)
	}
	q := r.URL.Query()
	req.Instance = inst
	req.Solver = q.Get("solver")
	req.Objective = q.Get("objective")
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return req, errors.Join(ErrBadRequest, err)
		}
		req.Seed = seed
	}
	// Portfolio engine options; normalize() rejects them for other solvers.
	if v := q.Get("ops"); v != "" {
		req.EngineOps = strings.Split(v, ",")
	}
	if v := q.Get("rounds"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return req, errors.Join(ErrBadRequest, err)
		}
		req.EngineRounds = n
	}
	if v := q.Get("budget"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return req, errors.Join(ErrBadRequest, err)
		}
		req.EngineBudget = n
	}
	if v := q.Get("timeout"); v == "" {
		v = r.Header.Get("X-Solve-Timeout")
		if v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				return req, errors.Join(ErrBadRequest, err)
			}
			req.Timeout = d
		}
	} else {
		d, err := time.ParseDuration(v)
		if err != nil {
			return req, errors.Join(ErrBadRequest, err)
		}
		req.Timeout = d
	}
	return req, nil
}

func (s *Service) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.met.Add("http.requests", 1)
	ri := reqInfoFrom(r.Context())
	if s.closed.Load() {
		s.countOutcome(OutcomeRejected)
		ri.setOutcome(OutcomeRejected)
		s.writeError(w, http.StatusServiceUnavailable, ErrClosed)
		return
	}
	admit := time.Now()
	req, err := parseSolveRequest(r)
	if err == nil {
		if ri != nil {
			req.RequestID = ri.id
		}
		// Resolve solver=auto before validation: the advisor decision is
		// part of admission, and the solve below runs a plain explicit
		// request.
		s.resolveAuto(&req)
		err = req.normalize()
	}
	if err != nil {
		s.countOutcome(OutcomeRejected)
		ri.setOutcome(OutcomeRejected)
		s.writeError(w, errorStatus(err), err)
		return
	}
	if req.Advice != nil {
		w.Header().Set("X-Advised-Solver", req.Advice.Solver)
		w.Header().Set("X-Advise-Basis", req.Advice.Basis)
	}
	mode := "sync"
	if r.URL.Query().Get("mode") == "async" {
		mode = "async"
	}
	tr := s.trace.WithRequest(req.RequestID)
	if tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.ReqAdmit, Label: req.Solver, Phase: mode})
	}
	s.stage(ri, tr, StageAdmission, time.Since(admit))
	if mode == "async" {
		s.startAsync(w, ri, req)
		return
	}

	ctx := r.Context()
	if d := s.effectiveTimeout(req.Timeout); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	res, outcome, err := s.Solve(ctx, req)
	if err != nil {
		s.writeError(w, errorStatus(err), err)
		return
	}
	w.Header().Set("X-Cache", outcome.String())
	w.Header().Set("X-Solver", res.Solver)
	w.Header().Set("X-Solve-Feasible", strconv.FormatBool(res.Feasible))
	w.Header().Set("X-Solve-Cancelled", strconv.FormatBool(res.Cancelled))
	s.writeJSON(w, http.StatusOK, res.Deployment)
}

// startAsync registers a job and answers 202 immediately; the solve runs
// in the background with its own deadline, detached from the HTTP request
// context. Close waits for these goroutines, so shutdown drains jobs.
func (s *Service) startAsync(w http.ResponseWriter, ri *reqInfo, req SolveRequest) {
	job, ok := s.jobs.create(req.Solver, req.RequestID, time.Now())
	if !ok {
		s.countOutcome(OutcomeRejected)
		ri.setOutcome(OutcomeRejected)
		s.writeError(w, http.StatusTooManyRequests, errors.New("job table full"))
		return
	}
	if ri != nil {
		ri.async = true // outcome settles in the background goroutine
	}
	budget := s.effectiveTimeout(req.Timeout)
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		started := time.Now()
		ctx := context.Background()
		if budget > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, budget)
			defer cancel()
		}
		s.jobs.update(job.ID, func(j *Job) { j.Status = JobRunning })
		res, outcome, err := s.Solve(ctx, req)
		elapsed := time.Since(started)
		s.met.Observe(stageMetric(StageE2E), elapsed.Seconds())
		if tr := s.trace.WithRequest(req.RequestID); tr.Enabled() {
			tr.Emit(obs.Event{Kind: obs.ReqDone, Phase: classifyOutcome(outcome, res, err), Dur: elapsed.Seconds()})
		}
		// Flight recorder: a job that failed or got cancelled keeps its
		// trailing trace events on the record, so the failure can be
		// diagnosed after the event log has moved on.
		var flight []obs.Event
		if n := s.cfg.FlightRecorder; n > 0 && s.events != nil &&
			(err != nil || (res != nil && res.Cancelled)) {
			flight = s.events.ForRequest(req.RequestID)
			if len(flight) > n {
				flight = flight[len(flight)-n:]
			}
		}
		now := time.Now()
		s.jobs.update(job.ID, func(j *Job) {
			j.Finished = &now
			j.Cache = outcome.String()
			j.Trace = flight
			if err != nil {
				j.Status = JobFailed
				j.Error = err.Error()
				return
			}
			j.Status = JobDone
			j.Result = res
		})
	}()
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	s.writeJSON(w, http.StatusAccepted, job)
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	s.met.Add("http.requests", 1)
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	s.writeJSON(w, http.StatusOK, job)
}

// handleJobTrace serves the trace slice of the request that ran an async
// job, resolved through the job's recorded request ID.
func (s *Service) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	s.met.Add("http.requests", 1)
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	s.writeTraceSlice(w, job.Request)
}

// handleRequestTrace serves a request's trace slice by request ID (the
// X-Request-ID of any earlier response).
func (s *Service) handleRequestTrace(w http.ResponseWriter, r *http.Request) {
	s.met.Add("http.requests", 1)
	s.writeTraceSlice(w, r.PathValue("id"))
}

// errTracingDisabled answers the trace and event-stream endpoints of a
// service built without an event log (Config.TraceBuffer < 0, which
// nocdeployd -trace-buffer 0 selects).
var errTracingDisabled = errors.New("request tracing disabled (no trace buffer)")

// writeTraceSlice emits the retained events of one request as JSONL
// (obs.ReadJSONL is the inverse). 404 distinguishes "nothing retained"
// — tracing disabled, unknown ID, or events already evicted from the
// log — from an empty-but-valid slice, which cannot occur: every traced
// request emits req.admit first.
func (s *Service) writeTraceSlice(w http.ResponseWriter, reqID string) {
	if s.events == nil {
		s.writeError(w, http.StatusNotFound, errTracingDisabled)
		return
	}
	events := s.events.ForRequest(reqID)
	if len(events) == 0 {
		s.writeError(w, http.StatusNotFound, errors.New("no trace retained for request "+reqID))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	s.met.Add(obs.Key("http.status", "code", "200"), 1)
	enc := json.NewEncoder(w)
	for _, e := range events {
		// A failed write means the client went away; nothing useful to do.
		if err := enc.Encode(e); err != nil {
			return
		}
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.closed.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, map[string]string{"status": status})
}

// wantsPrometheus decides the /metrics representation: an explicit
// ?format=prom|prometheus query wins; otherwise content negotiation on
// Accept — any text/plain or OpenMetrics media type selects the text
// exposition, everything else (including no Accept at all) keeps the
// JSON snapshot.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// handleMetrics refreshes the live gauges and emits the registry in the
// negotiated format. Counters owned elsewhere (http.requests,
// stage histograms, requests{outcome=...}) are already live in the
// registry. Both representations are point-in-time views and must never
// be cached by an intermediary.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.Add("http.requests", 1)
	s.refreshGauges()
	w.Header().Set("Cache-Control", "no-store")
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.PromContentType)
		s.met.Add(obs.Key("http.status", "code", "200"), 1)
		// A failed write means the client went away; nothing useful to do.
		_ = obs.WritePrometheus(w, s.met.Snapshot())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.met.Add(obs.Key("http.status", "code", "200"), 1)
	// A failed write means the client went away; nothing useful to do.
	_ = s.met.WriteJSON(w)
}
