// Package service exposes the solver stack as a long-running deployment
// service: a bounded job queue feeding a worker pool, fronted by a
// content-addressed solution cache with singleflight coalescing, behind a
// small HTTP API (see handlers.go).
//
// The three layers compose as queue → pool → cache → solver:
//
//   - admission control: the queue is bounded; a full queue rejects
//     immediately (HTTP 429) instead of building unbounded backlog;
//   - coalescing: identical requests — same canonical instance hash, same
//     solver options — share one solve in flight and then one cached
//     solution (spec.Instance.CanonicalHash is the key);
//   - cancellation: per-request deadlines flow as a context through
//     solve.Run, so an expired request stops branch & bound mid-tree and
//     returns the best incumbent with the Cancelled flag; cancelled
//     (partial) results are never cached.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nocdeploy/internal/archive"
	"nocdeploy/internal/cache"
	"nocdeploy/internal/core"
	"nocdeploy/internal/engine"
	"nocdeploy/internal/obs"
	"nocdeploy/internal/runner"
	"nocdeploy/internal/solve"
	"nocdeploy/internal/spec"
)

// Solver names accepted by the API: solve.Names, plus SolverAuto.
const (
	SolverHeuristic = solve.Heuristic
	SolverRepair    = solve.Repair
	SolverAnneal    = solve.Anneal
	SolverOptimal   = solve.Optimal
	SolverPortfolio = solve.Portfolio

	// SolverAuto asks the archive advisor to pick the solver from this
	// instance's history (see resolveAuto). It is resolved to a concrete
	// solver before normalization, so it never reaches the cache key or
	// the solver switch.
	SolverAuto = "auto"
)

// Service errors. ErrBadRequest wraps client mistakes (HTTP 400),
// ErrNoSolution reports a solver that finished without any deployment
// (HTTP 422), and runner.ErrQueueFull surfaces as HTTP 429.
var (
	ErrBadRequest = errors.New("bad request")
	ErrNoSolution = errors.New("no deployment found")
	ErrClosed     = errors.New("service closed")
)

// Config tunes a Service. The zero value is serviceable: all-core workers,
// a 64-deep queue, a 256-entry cache.
type Config struct {
	Workers    int // solver pool size; ≤0 means all cores
	QueueDepth int // queued (not yet executing) solves before 429
	CacheSize  int // LRU entries
	MaxJobs    int // live async jobs before 429
	// DefaultTimeout bounds solves that carry no explicit deadline;
	// 0 means no default. MaxTimeout clamps explicit deadlines (0 = 1h).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	Metrics        *obs.Metrics

	// TraceBuffer sizes the in-memory event log (obs.Log) behind the
	// trace endpoints, the flight recorder and the SSE streams, which
	// read it through per-stream cursors: 0 means the 4096-event default,
	// negative disables request tracing and with it all three.
	TraceBuffer int
	// StreamBuffer is ignored: SSE streams read the event log directly,
	// so TraceBuffer bounds them too. It is kept only because the
	// benchmark harness (perfbench) sets it.
	StreamBuffer int
	// Heartbeat is the idle interval between SSE comment heartbeats that
	// keep intermediaries from timing out a quiet stream; 0 means 15s.
	Heartbeat time.Duration
	// FlightRecorder is how many trailing trace events are attached to a
	// failed or cancelled async job record; 0 means 64, negative disables.
	FlightRecorder int
	// TraceSinks are additional sinks (JSONL files, …) fanned the same
	// request-tagged event stream; closed by Service.Close.
	TraceSinks []obs.Sink
	// AccessLog, when non-nil, receives one structured JSON line per
	// HTTP request (id, route, status, stage timings).
	AccessLog io.Writer

	// Archive, when non-nil, records every non-cached solve into the
	// persistent solve archive and enables GET /v1/archive and
	// solver=auto (see internal/archive). The Service takes ownership:
	// Close drains and closes the store. Archiving is write-only — solver
	// output is byte-identical with and without it.
	Archive *archive.Store

	// Clock is the service's time source for uptime accounting; nil
	// means the wall clock. Injected so tests pin uptime_seconds.
	Clock obs.Clock
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = time.Hour
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewMetrics()
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 15 * time.Second
	}
	if c.FlightRecorder == 0 {
		c.FlightRecorder = 64
	}
	return c
}

// SolveRequest is one fully-parsed solve order.
type SolveRequest struct {
	Instance  spec.Instance
	Solver    string        // one of the Solver* constants
	Objective string        // "be" (default) or "me"
	Seed      int64         // solver tie-break seed
	Timeout   time.Duration // 0 means Config.DefaultTimeout

	// Portfolio engine options (SolverPortfolio only; rejected otherwise).
	// EngineOps selects the operator portfolio by name; empty means the
	// full built-in set. EngineRounds bounds the improvement loop and
	// EngineBudget each warm-started exact repair (0 = engine defaults).
	// All three change the answer, so all three are part of the cache key.
	EngineOps    []string
	EngineRounds int
	EngineBudget int

	// RequestID tags every trace event this request's solve emits. The
	// HTTP layer mints it at admission; Solve assigns one when empty.
	// Deliberately excluded from the cache key — identity never changes
	// a solution.
	RequestID string

	// Advice is the advisor decision that resolved solver=auto into the
	// fields above; nil for explicit solver selections. Excluded from the
	// cache key (the resolved options already determine the answer) and
	// recorded on the archived solve, closing the advisor feedback loop.
	Advice *archive.Decision
}

// normalize fills defaults and validates, wrapping failures in
// ErrBadRequest.
func (r *SolveRequest) normalize() error {
	objective, err := normObjective(r.Objective)
	if err != nil {
		return err
	}
	r.Objective = objective
	if r.Solver == "" {
		r.Solver = SolverHeuristic
	}
	if err := r.solveOptions(nil).Validate(r.Solver); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	// Canonicalize "full portfolio" so an explicit full list and an empty
	// selection share one cache entry.
	if r.Solver == SolverPortfolio && len(r.EngineOps) == 0 {
		r.EngineOps = engine.OperatorNames()
	}
	if len(r.Instance.Graph.Tasks) == 0 {
		return fmt.Errorf("%w: instance has no tasks", ErrBadRequest)
	}
	return nil
}

// normObjective maps an objective parameter onto "be" (the default) or
// "me", wrapping anything else in ErrBadRequest.
func normObjective(o string) (string, error) {
	switch o {
	case "", "be":
		return "be", nil
	case "me":
		return "me", nil
	}
	return "", fmt.Errorf("%w: unknown objective %q (want be or me)", ErrBadRequest, o)
}

// solveOptions maps the request onto solve.Run's options. One pool worker
// already hosts the solve, so the solver runs on one inner worker and
// service throughput stays governed by the service pool.
func (r *SolveRequest) solveOptions(tr *obs.Trace) solve.Options {
	o := solve.Options{
		Core:    core.Options{Trace: tr},
		Seed:    r.Seed,
		Workers: 1,
		Ops:     r.EngineOps,
		Rounds:  r.EngineRounds,
		Budget:  r.EngineBudget,
	}
	if r.Objective == "me" {
		o.Core.Objective = core.MinimizeEnergy
	}
	return o
}

// cacheKey is the content address of the request: the canonical instance
// hash plus every solver option that changes the answer. The timeout is
// deliberately excluded — a deadline changes when a solve stops, not what
// a completed solve returns, and truncated (cancelled) results are never
// stored. The bare instance hash is returned alongside so the archive
// records it without re-hashing.
func (r *SolveRequest) cacheKey() (key, hash string, err error) {
	h, err := r.Instance.CanonicalHash()
	if err != nil {
		return "", "", fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	key = h + "|solver=" + r.Solver + "|obj=" + r.Objective + "|seed=" + strconv.FormatInt(r.Seed, 10)
	if r.Solver == SolverPortfolio {
		// Engine options select different search trajectories, hence
		// different (all valid) answers: no cross-engine cache hits.
		key += "|ops=" + strings.Join(r.EngineOps, ",") +
			"|rounds=" + strconv.Itoa(r.EngineRounds) +
			"|budget=" + strconv.Itoa(r.EngineBudget)
	}
	return key, h, nil
}

// SolveResult is the outcome of one underlying solve, as cached and as
// embedded in async job bodies.
type SolveResult struct {
	Solver     string          `json:"solver"`
	Key        string          `json:"key"`
	Deployment spec.Deployment `json:"deployment"`
	Feasible   bool            `json:"feasible"`
	Cancelled  bool            `json:"cancelled"`
	Runtime    float64         `json:"runtimeSeconds"`
}

// Service is the deployment-as-a-service engine. Create with New, serve
// via Handler, stop with Close.
type Service struct {
	cfg    Config
	met    *obs.Metrics
	pool   *runner.Pool
	cache  *cache.Cache[*SolveResult]
	jobs   *jobTable
	trace  *obs.Trace     // root of every request-scoped child trace; may be nil
	events *obs.Log       // recent events: trace endpoints, flight recorder, SSE; may be nil
	alog   *accessLogger  // may be nil
	arch   *archive.Store // persistent solve archive; may be nil
	clock  obs.Clock
	start  time.Time // service start, per clock — uptime_seconds epoch
	reqSeq atomic.Int64
	solves atomic.Int64 // underlying solver invocations (cache misses that ran)
	closed atomic.Bool
	bg     sync.WaitGroup // async job goroutines

	// solveHook replaces runSolve in tests. Guarded by being set before any
	// request is served.
	solveHook func(ctx context.Context, req SolveRequest) (*SolveResult, error)
}

// New builds a Service and starts its worker pool.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:   cfg,
		met:   cfg.Metrics,
		pool:  runner.NewPool(cfg.Workers, cfg.QueueDepth, nil),
		cache: cache.New[*SolveResult](cfg.CacheSize),
		jobs:  newJobTable(cfg.MaxJobs),
		alog:  newAccessLogger(cfg.AccessLog),
		arch:  cfg.Archive,
		clock: cfg.Clock,
	}
	s.start = s.clock.Now()
	var sinks []obs.Sink
	if cfg.TraceBuffer >= 0 {
		capacity := cfg.TraceBuffer
		if capacity == 0 {
			capacity = 4096
		}
		s.events = obs.NewLog(capacity)
		sinks = append(sinks, s.events)
	}
	sinks = append(sinks, cfg.TraceSinks...)
	// Fold solver events into the metrics registry so per-operator engine
	// counters (and bb.*/lp.* work counters) surface through /metrics.
	sinks = append(sinks, obs.NewMetricsSink(cfg.Metrics))
	s.trace = obs.New(sinks...)
	s.arch.AttachTrace(s.trace)
	s.setBuildInfo()
	return s
}

// Close drains the service: admission stops (requests get ErrClosed),
// in-flight async jobs and every queued solve run to completion, the
// worker pool exits, and the trace sinks flush. Safe to call more than
// once.
func (s *Service) Close() {
	s.closed.Store(true)
	s.bg.Wait()
	s.pool.Close()
	// All emitters have stopped; flush file-backed trace sinks. Errors
	// have nowhere useful to go — the service is already down.
	_ = s.trace.Close()
	// Drain the archive writer last: every recorded solve is durable
	// before Close returns, so a restart recovers the full history.
	_ = s.arch.Close()
}

// SolveRuns reports how many underlying solver invocations have happened —
// the denominator of cache effectiveness (requests − SolveRuns were
// answered by coalescing or the cache).
func (s *Service) SolveRuns() int64 { return s.solves.Load() }

// CacheStats snapshots the solution cache accounting.
func (s *Service) CacheStats() cache.Stats { return s.cache.Stats() }

// QueueDepth reports solves admitted but not yet finished.
func (s *Service) QueueDepth() int { return s.pool.Pending() }

// Solve answers req through the cache/queue/pool stack: a cache hit
// returns immediately, a request identical to one in flight waits for that
// flight, and otherwise the caller becomes the leader — its solve is
// admitted to the bounded queue (runner.ErrQueueFull on overload) and runs
// on the pool under ctx. The outcome reports which path answered.
//
// Observability: the request's ID (minted here if the HTTP layer did not
// already) tags every trace event the solve emits, each serving stage is
// observed into its latency histogram, and exactly one outcome-labelled
// request counter is incremented on return.
func (s *Service) Solve(ctx context.Context, req SolveRequest) (*SolveResult, cache.Outcome, error) {
	ri := reqInfoFrom(ctx)
	if req.RequestID == "" {
		if ri != nil {
			req.RequestID = ri.id
		} else {
			req.RequestID = s.nextRequestID()
		}
	}
	res, outcome, err := s.solve(ctx, req, ri)
	oc := classifyOutcome(outcome, res, err)
	s.countOutcome(oc)
	ri.setOutcome(oc)
	return res, outcome, err
}

func (s *Service) solve(ctx context.Context, req SolveRequest, ri *reqInfo) (*SolveResult, cache.Outcome, error) {
	if s.closed.Load() {
		return nil, cache.Miss, ErrClosed
	}
	s.resolveAuto(&req) // idempotent: the HTTP layer may already have
	if err := req.normalize(); err != nil {
		return nil, cache.Miss, err
	}
	key, hash, err := req.cacheKey()
	if err != nil {
		return nil, cache.Miss, err
	}
	tr := s.trace.WithRequest(req.RequestID)
	t0 := time.Now()
	res, flight, outcome := s.cache.Acquire(key)
	s.stage(ri, tr, StageCache, time.Since(t0))
	if ri != nil {
		ri.cache = outcome.String()
	}
	switch outcome {
	case cache.Hit:
		return res, outcome, nil
	case cache.Coalesced:
		res, err := flight.Wait(ctx)
		return res, outcome, err
	}
	// Leader: run the solve on the pool; every coalesced waiter shares the
	// result. The flight must be finished on all paths or waiters hang.
	start := time.Now()
	var out *SolveResult
	var info *core.SolveInfo
	var queueWait, solveDur time.Duration
	done, err := s.pool.TrySubmit(func() error {
		begun := time.Now()
		queueWait = begun.Sub(start)
		var err error
		out, info, err = s.runSolve(ctx, req, key, tr)
		solveDur = time.Since(begun)
		return err
	})
	if err != nil {
		s.cache.Finish(flight, nil, err, false)
		return nil, outcome, err
	}
	err = <-done // synchronizes queueWait/solveDur with the worker's writes
	s.stage(ri, tr, StageQueue, queueWait)
	s.stage(ri, tr, StageSolve, solveDur)
	// Cancelled solves are partial by definition: deliver them to waiters
	// but never store them, so a later unhurried request re-solves.
	store := err == nil && out != nil && !out.Cancelled
	s.cache.Finish(flight, out, err, store)
	s.met.Observe("solve.seconds", time.Since(start).Seconds())
	// Archive the solve after the flight is settled — recording is
	// write-only and off the waiters' path.
	s.recordSolve(req, hash, out, info, err, solveStages{
		queue: queueWait,
		solve: solveDur,
		e2e:   time.Since(start),
	})
	return out, outcome, err
}

// runSolve executes one solver invocation. It runs on a pool worker with
// the leader's request context; tr is the leader's request-scoped trace,
// so the solver's events carry the leader's request ID. The solver's own
// SolveInfo comes back alongside the result, for the archive record.
func (s *Service) runSolve(ctx context.Context, req SolveRequest, key string, tr *obs.Trace) (*SolveResult, *core.SolveInfo, error) {
	s.solves.Add(1)
	if s.solveHook != nil {
		res, err := s.solveHook(ctx, req)
		return res, nil, err
	}
	start := time.Now()
	sys, err := req.Instance.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	d, info, err := solve.Run(ctx, sys, req.Solver, req.solveOptions(tr))
	if err != nil {
		return nil, nil, err
	}
	if d == nil {
		if info != nil && info.Cancelled {
			// Cancelled before any incumbent existed (e.g. during model
			// build): surface the context's own error.
			if cerr := ctx.Err(); cerr != nil {
				return nil, info, cerr
			}
			return nil, info, context.Canceled
		}
		return nil, info, ErrNoSolution
	}
	res := &SolveResult{
		Solver:    req.Solver,
		Key:       key,
		Feasible:  info.Feasible,
		Cancelled: info.Cancelled,
		Runtime:   time.Since(start).Seconds(),
	}
	if m, merr := core.ComputeMetrics(sys, d); merr == nil {
		res.Deployment = spec.FromDeployment(d, m, info)
	} else if info.Cancelled {
		// A truncated partial deployment may not admit metrics; return the
		// raw decision vectors so the client sees how far the solve got.
		res.Deployment = spec.FromDeployment(d, nil, info)
	} else {
		return nil, info, merr
	}
	return res, info, nil
}

// effectiveTimeout resolves a request's solve budget against the
// configured default and clamp.
func (s *Service) effectiveTimeout(req time.Duration) time.Duration {
	d := req
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if d <= 0 || d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

func (s *Service) nextRequestID() string {
	return "r" + strconv.FormatInt(s.reqSeq.Add(1), 10)
}
