// Package obs is the solver stack's dependency-free observability layer:
// typed event tracing, a small metrics registry, and pluggable sinks.
//
// The design center is the no-perturbation rule: tracing must never change
// solver results. Solver code only ever *writes* to a Trace — nothing in
// this package feeds information back into a solve — and a nil *Trace is
// the disabled state, costing a single pointer test per emission site (see
// BenchmarkEmitNil). The determinism contract of internal/exp (tables
// byte-identical at any parallelism) therefore holds with tracing on or
// off, which TestDeterminismTracingInvariance proves.
//
// Architecture:
//
//	solver code ──Emit(Event)──▶ Trace ──fan-out──▶ Sink(s)
//
// A Trace stamps each event with a sequence number and a timestamp from an
// injectable clock (deterministic tests use a fake clock), then fans it
// out to its sinks under one mutex, so sinks observe a totally ordered
// event stream even when parallel branch & bound workers emit
// concurrently. Built-in sinks:
//
//   - JSONLSink: one JSON object per line, the archival format
//     (round-trips through encoding/json);
//   - ChromeSink: Chrome trace_event JSON for chrome://tracing and
//     Perfetto flame views of parallel workers;
//   - ProgressSink: a throttled human ticker for stderr;
//   - MetricsSink: aggregates events into a Metrics registry
//     (nodes, incumbent trajectory, bound gap, pool occupancy);
//   - Log: a bounded in-memory event log, sliced by request ID and read
//     live through per-subscriber cursors (the deployment service's
//     trace and SSE endpoints).
//
// Event order across concurrent emitters depends on goroutine scheduling,
// so trace files — unlike result tables — are not byte-reproducible for
// parallel runs; serial runs are (golden_test.go pins one).
package obs

import (
	"fmt"
	"sync"
	"time"
)

// Sink consumes a totally ordered stream of events. Write is always called
// under the owning Trace's mutex, so implementations need no locking of
// their own unless they are shared between traces.
type Sink interface {
	Write(e Event)
	// Close flushes and releases the sink. A Trace closes its sinks in
	// registration order; the first error wins.
	Close() error
}

// Trace is the event hub handed to solver code. The nil *Trace is the
// disabled tracer: every method is nil-safe and Emit on nil returns
// immediately, so hot paths pay only the receiver nil test.
//
// A Trace is either a root (owns clock, sequence and sinks) or a
// request-scoped child made by WithRequest, which shares everything with
// its root but stamps a request ID onto every event it emits.
type Trace struct {
	mu    sync.Mutex
	now   func() time.Time
	start time.Time
	seq   int64
	sinks []Sink

	// Child traces delegate emission to root and tag events with req;
	// both are immutable after construction, so children need no locking
	// of their own.
	root *Trace
	req  string
}

// New returns a trace fanning events out to the given sinks, stamped with
// wall-clock time relative to the call.
func New(sinks ...Sink) *Trace {
	return NewWithClock(time.Now, sinks...)
}

// NewWithClock is New with an injectable clock, used by deterministic
// tests (golden fixtures) to pin event timestamps. now must be monotone
// non-decreasing; it is called once at construction (the trace epoch) and
// once per emitted event.
func NewWithClock(now func() time.Time, sinks ...Sink) *Trace {
	return &Trace{now: now, start: now(), sinks: sinks}
}

// Enabled reports whether events will be recorded. Emission sites inside
// tight loops should guard event construction with it.
func (t *Trace) Enabled() bool { return t != nil }

// WithRequest returns a request-scoped view of the trace: it shares the
// root's clock, sequence numbering and sinks, but every event emitted
// through it carries id in Event.Req. The deployment service mints one
// per admitted request and hands it to the solver, so a request's events
// can be sliced back out of the shared stream. Children of children
// re-parent onto the root. Nil-safe: a nil trace returns nil, keeping
// the disabled path free.
func (t *Trace) WithRequest(id string) *Trace {
	if t == nil {
		return nil
	}
	root := t
	if t.root != nil {
		root = t.root
	}
	return &Trace{root: root, req: id}
}

// Emit stamps e with the trace-relative timestamp and the next sequence
// number and hands it to every sink. Safe for concurrent use; a nil
// receiver discards the event. On a request-scoped trace the event is
// additionally stamped with the request ID before delegation to the
// root's sinks.
func (t *Trace) Emit(e Event) {
	if t == nil {
		return
	}
	if t.root != nil {
		e.Req = t.req
		t = t.root
	}
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	e.T = t.now().Sub(t.start).Seconds()
	for _, s := range t.sinks {
		s.Write(e)
	}
	t.mu.Unlock()
}

// Close closes every sink in registration order and returns the first
// error. Nil-safe; closing a request-scoped child is a no-op — the root
// owns the sinks.
func (t *Trace) Close() error {
	if t == nil || t.root != nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var first error
	for _, s := range t.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = fmt.Errorf("obs: closing sink: %w", err)
		}
	}
	t.sinks = nil
	return first
}
