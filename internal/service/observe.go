// Request-level observability: per-request IDs, serving-stage timings,
// and outcome accounting.
//
// Every admitted request gets an ID (minted by the HTTP middleware, or
// by Solve itself for direct API callers). The ID rides a request-scoped
// obs.Trace child through cache → queue → pool → solver, so every event
// the solve emits carries it, and the service's event log can serve the
// per-request trace slice back out (GET /v1/requests/{id}/trace).
// Alongside the trace, each serving stage is observed into a latency
// histogram and each finished request increments one outcome-labelled
// counter — the numbers `deployctl top` and the Prometheus scrape read.
package service

import (
	"context"
	"errors"
	"runtime"
	"time"

	"nocdeploy/internal/cache"
	"nocdeploy/internal/obs"
	"nocdeploy/internal/runner"
)

// Request outcomes, the label values of the requests{outcome=...}
// counter. Exactly one is recorded per solve request.
const (
	// OutcomeOK: a fresh solve ran to completion.
	OutcomeOK = "ok"
	// OutcomeCached: answered from the solution cache.
	OutcomeCached = "cached"
	// OutcomeCoalesced: answered by waiting on an identical in-flight
	// solve.
	OutcomeCoalesced = "coalesced"
	// OutcomeCancelled: the request's deadline or disconnect stopped the
	// solve (a partial incumbent may still have been returned).
	OutcomeCancelled = "cancelled"
	// OutcomeRejected: admission control refused the request (bad
	// request, full queue, full job table, or a draining service).
	OutcomeRejected = "rejected"
	// OutcomeError: the solver failed or found no deployment.
	OutcomeError = "error"
)

// Serving stages, the label values used in stage histogram names
// (stage.<name>_seconds) and req.stage trace events.
const (
	StageAdmission = "admission" // decode + validate, before the cache
	StageCache     = "cache"     // cache lookup / singleflight acquire
	StageQueue     = "queue"     // admitted, waiting for a pool worker
	StageSolve     = "solve"     // solver wall time on the worker
	StageE2E       = "e2e"       // request receipt to response
)

// stageMetric maps a stage name onto its histogram key.
func stageMetric(stage string) string {
	return "stage." + stage + "_seconds"
}

// reqInfo accumulates one request's observability state as it moves
// through the handler and the solve stack. It travels via the request
// context; direct Solve callers (no middleware) run without one, which
// every method tolerates as a nil receiver.
type reqInfo struct {
	id    string
	start time.Time
	async bool // outcome settles in a background job, not the handler

	// Only ever touched from the request's own handler goroutine (the
	// async solve runs under a detached context without it), so no
	// locking is needed.
	stages  []stageSample
	outcome string
	cache   string
}

type stageSample struct {
	name string
	dur  time.Duration
}

func (ri *reqInfo) addStage(name string, d time.Duration) {
	if ri == nil {
		return
	}
	ri.stages = append(ri.stages, stageSample{name: name, dur: d})
}

func (ri *reqInfo) setOutcome(oc string) {
	if ri == nil {
		return
	}
	ri.outcome = oc
}

type reqInfoKey struct{}

func withReqInfo(ctx context.Context, ri *reqInfo) context.Context {
	return context.WithValue(ctx, reqInfoKey{}, ri)
}

func reqInfoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// stage records one finished serving stage everywhere it is observable:
// the stage latency histogram, the request's access-log record, and the
// request-scoped trace.
func (s *Service) stage(ri *reqInfo, tr *obs.Trace, name string, d time.Duration) {
	s.met.Observe(stageMetric(name), d.Seconds())
	ri.addStage(name, d)
	if tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.ReqStage, Phase: name, Dur: d.Seconds()})
	}
}

// countOutcome records the terminal outcome of one request.
func (s *Service) countOutcome(oc string) {
	s.met.Add(obs.Key("requests", "outcome", oc), 1)
}

// classifyOutcome folds a Solve result into its outcome label.
func classifyOutcome(outcome cache.Outcome, res *SolveResult, err error) string {
	if err != nil {
		switch {
		case errors.Is(err, ErrBadRequest),
			errors.Is(err, runner.ErrQueueFull),
			errors.Is(err, runner.ErrPoolClosed),
			errors.Is(err, ErrClosed):
			return OutcomeRejected
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			return OutcomeCancelled
		}
		return OutcomeError
	}
	switch outcome {
	case cache.Hit:
		return OutcomeCached
	case cache.Coalesced:
		return OutcomeCoalesced
	}
	if res != nil && res.Cancelled {
		return OutcomeCancelled
	}
	return OutcomeOK
}

// refreshGauges brings the live operational gauges up to date; called on
// every metrics scrape so both exposition formats see current values.
func (s *Service) refreshGauges() {
	st := s.cache.Stats()
	s.met.Set("queue.depth", float64(s.pool.Pending()))
	s.met.Set("queue.waiting", float64(s.pool.Queued()))
	s.met.Set("solve.inflight", float64(s.pool.Running()))
	s.met.Set("jobs.live", float64(s.jobs.live()))
	s.met.Set("jobs.size", float64(s.jobs.size()))
	s.met.Set("cache.entries", float64(st.Entries))
	s.met.Set("cache.hits", float64(st.Hits))
	s.met.Set("cache.misses", float64(st.Misses))
	s.met.Set("cache.coalesced", float64(st.Coalesced))
	s.met.Set("cache.evictions", float64(st.Evictions))
	s.met.Set("cache.hit_ratio", st.HitRatio())
	s.met.Set("solve.runs", float64(s.solves.Load()))
	if s.events != nil {
		ls := s.events.Stats()
		s.met.Set("trace.ring_events", float64(ls.Len))
		s.met.Set("trace.ring_dropped", float64(ls.Evicted))
		s.met.Set("stream.subscribers", float64(ls.Subscribers))
		s.met.Set("stream.dropped", float64(ls.Dropped))
	}
	if s.arch != nil {
		ast := s.arch.StoreStats()
		s.met.Set("archive.index_records", float64(ast.Records))
		s.met.Set("archive.pending", float64(ast.Pending))
		s.met.Set("archive.dropped", float64(ast.Dropped))
		s.met.Set("archive.disk_bytes", float64(ast.DiskBytes))
		s.met.Set("archive.segments", float64(ast.Segments))
	}
	s.met.Set("uptime_seconds", s.clock.Now().Sub(s.start).Seconds())

	// Go runtime health, so a scrape sees goroutine leaks and heap/GC
	// pressure next to the service's own gauges. ReadMemStats is a brief
	// stop-the-world; once per scrape is far below any rate that matters.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.met.Set("go.goroutines", float64(runtime.NumGoroutine()))
	s.met.Set("go.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	s.met.Set("go.heap_alloc_bytes", float64(ms.HeapAlloc))
	s.met.Set("go.heap_sys_bytes", float64(ms.HeapSys))
	s.met.Set("go.gc_pause_total_seconds", float64(ms.PauseTotalNs)/1e9)
	s.met.Set("go.gc_cycles", float64(ms.NumGC))
}
