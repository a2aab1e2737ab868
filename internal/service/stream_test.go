package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nocdeploy/internal/obs"
)

// sseMessage is one parsed SSE message.
type sseMessage struct {
	name  string
	event obs.Event
}

// readSSE consumes an SSE body until it closes, returning the parsed
// messages (heartbeat comments are skipped).
func readSSE(t *testing.T, resp *http.Response) []sseMessage {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	var msgs []sseMessage
	var cur sseMessage
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, ":"): // heartbeat comment
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.event); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
		case line == "":
			if cur.name != "" {
				msgs = append(msgs, cur)
				cur = sseMessage{}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return msgs
}

// isTerminal reports whether m is the synthesized stream terminal.
func isTerminal(m sseMessage) bool {
	return m.name == string(obs.SolveDone) && m.event.Label == "request"
}

// TestStreamJobEventsMidFlight is the headline acceptance path: attach to
// a deadline-limited optimal solve while it runs and require at least one
// bb.incumbent and one bb.gap before the terminal solve.done.
func TestStreamJobEventsMidFlight(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body := instanceBody(t, chainInstance(6, 9.2))
	resp := postSolve(t, srv.URL+"/v1/solve?solver=optimal&timeout=400ms&mode=async", body)
	got := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async solve status %d: %s", resp.StatusCode, got)
	}
	var job Job
	if err := json.Unmarshal(got, &job); err != nil {
		t.Fatal(err)
	}

	stream, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	msgs := readSSE(t, stream)
	if len(msgs) == 0 {
		t.Fatal("empty event stream")
	}
	last := msgs[len(msgs)-1]
	if !isTerminal(last) {
		t.Fatalf("stream did not end with a terminal solve.done: last = %+v", last)
	}
	if last.event.Phase != OutcomeCancelled {
		t.Errorf("terminal outcome %q, want %q", last.event.Phase, OutcomeCancelled)
	}
	var incumbents, gaps int
	for _, m := range msgs[:len(msgs)-1] {
		switch m.name {
		case string(obs.BBIncumbent):
			incumbents++
		case string(obs.BBGap):
			gaps++
			if m.event.Gap < 0 {
				t.Errorf("negative relative gap %g", m.event.Gap)
			}
			if m.event.Bound > m.event.Obj+1e-9 {
				t.Errorf("bb.gap bound %g above incumbent %g", m.event.Bound, m.event.Obj)
			}
		}
	}
	if incumbents == 0 {
		t.Error("no bb.incumbent event before the terminal")
	}
	if gaps == 0 {
		t.Error("no bb.gap event before the terminal")
	}
	for i, m := range msgs {
		if isTerminal(m) && i != len(msgs)-1 {
			t.Errorf("terminal event at position %d of %d", i, len(msgs))
		}
	}
}

// TestStreamDeliversTraceSliceExactlyOnce pins the seam between the
// retained trace and the live stream: a stream attached while a solve
// runs delivers exactly the request's trace slice up to req.done — every
// event once, in sequence order, with no gap — and a reconnect with
// Last-Event-ID set to an event in the middle delivers exactly the suffix
// after it.
func TestStreamDeliversTraceSliceExactlyOnce(t *testing.T) {
	svc := New(Config{TraceBuffer: 1 << 16})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body := instanceBody(t, chainInstance(6, 9.2))
	resp := postSolve(t, srv.URL+"/v1/solve?solver=optimal&timeout=400ms&mode=async", body)
	got := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async solve status %d: %s", resp.StatusCode, got)
	}
	var job Job
	if err := json.Unmarshal(got, &job); err != nil {
		t.Fatal(err)
	}

	// stream reads one attachment to its terminal and returns the seqs
	// of the trace events before it.
	stream := func(lastID int64) []int64 {
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+job.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastID > 0 {
			req.Header.Set("Last-Event-ID", strconv.FormatInt(lastID, 10))
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		msgs := readSSE(t, r)
		if len(msgs) == 0 || !isTerminal(msgs[len(msgs)-1]) {
			t.Fatalf("stream (Last-Event-ID %d) did not end with the terminal", lastID)
		}
		var seqs []int64
		for i, m := range msgs[:len(msgs)-1] {
			if m.name == string(obs.StreamGap) {
				t.Fatalf("stream (Last-Event-ID %d) has a %d-event gap at message %d", lastID, m.event.Node, i)
			}
			if n := len(seqs); n > 0 && m.event.Seq <= seqs[n-1] {
				t.Fatalf("seq %d after %d: not strictly increasing", m.event.Seq, seqs[n-1])
			}
			seqs = append(seqs, m.event.Seq)
		}
		return seqs
	}
	live := stream(0)
	t.Logf("%d events streamed", len(live))

	traceResp, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	raw := readBody(t, traceResp)
	if traceResp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", traceResp.StatusCode, raw)
	}
	events, err := obs.ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for _, e := range events {
		want = append(want, e.Seq)
		if e.Kind == obs.ReqDone {
			break
		}
	}
	if !slices.Equal(live, want) {
		t.Fatalf("stream delivered %d events, trace slice up to req.done has %d; first difference at %d",
			len(live), len(want), firstDiff(live, want))
	}

	mid := len(live) / 2
	if suffix := stream(live[mid]); !slices.Equal(suffix, live[mid+1:]) {
		t.Fatalf("resume after seq %d delivered %d events, want the %d after it; first difference at %d",
			live[mid], len(suffix), len(live)-mid-1, firstDiff(suffix, live[mid+1:]))
	}
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []int64) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestStreamRequestEventsLateJoin: a stream opened after a sync solve
// finished replays the retained prefix and terminates immediately from
// the replayed req.done.
func TestStreamRequestEventsLateJoin(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body := instanceBody(t, chainInstance(3, 5.0))
	resp := postSolve(t, srv.URL+"/v1/solve", body)
	_ = readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	reqID := resp.Header.Get("X-Request-ID")

	stream, err := http.Get(srv.URL + "/v1/requests/" + reqID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	msgs := readSSE(t, stream)
	if len(msgs) < 2 {
		t.Fatalf("late join replayed %d messages, want admit…done at least", len(msgs))
	}
	if msgs[0].name != string(obs.ReqAdmit) {
		t.Errorf("first replayed event %q, want req.admit", msgs[0].name)
	}
	if !isTerminal(msgs[len(msgs)-1]) {
		t.Fatalf("late join did not terminate: last = %+v", msgs[len(msgs)-1])
	}
	if oc := msgs[len(msgs)-1].event.Phase; oc != OutcomeOK {
		t.Errorf("terminal outcome %q, want ok", oc)
	}
	for _, m := range msgs {
		if m.event.Req != reqID && m.name != string(obs.SolveDone) {
			t.Errorf("event for foreign request leaked: %+v", m)
		}
	}
}

// TestStreamKindsFilter: ?kinds= narrows both the replay prefix and the
// live tail, while req.done stays implicitly included so the stream can
// still terminate.
func TestStreamKindsFilter(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body := instanceBody(t, chainInstance(3, 5.0))
	resp := postSolve(t, srv.URL+"/v1/solve?solver=optimal", body)
	_ = readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	reqID := resp.Header.Get("X-Request-ID")

	stream, err := http.Get(srv.URL + "/v1/requests/" + reqID + "/events?kinds=bb.incumbent")
	if err != nil {
		t.Fatal(err)
	}
	msgs := readSSE(t, stream)
	if len(msgs) < 2 {
		t.Fatalf("filtered stream has %d messages, want incumbents + terminal", len(msgs))
	}
	for _, m := range msgs[:len(msgs)-2] {
		if m.name != string(obs.BBIncumbent) {
			t.Errorf("kind filter leaked %q", m.name)
		}
	}
	if msgs[len(msgs)-2].name != string(obs.ReqDone) {
		t.Errorf("penultimate message %q, want req.done (implicitly included)", msgs[len(msgs)-2].name)
	}
	if !isTerminal(msgs[len(msgs)-1]) {
		t.Fatalf("filtered stream did not terminate: %+v", msgs[len(msgs)-1])
	}
}

// TestStreamUnknownJob404s while an unknown request ID is a legal open
// stream (clients may attach early) — exercised via its heartbeat.
func TestStreamUnknownJob404(t *testing.T) {
	svc := New(Config{Heartbeat: 30 * time.Millisecond})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/jobs/job-999/events")
	if err != nil {
		t.Fatal(err)
	}
	_ = readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job stream status %d, want 404", resp.StatusCode)
	}

	// Unknown request: the stream stays open sending heartbeats until the
	// client hangs up.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/requests/r999/events", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	buf := make([]byte, 64)
	n, _ := resp2.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), ": hb") {
		t.Fatalf("idle stream sent %q, want a heartbeat comment", buf[:n])
	}
}

// TestStreamFinishedJobEvicted: a stream opened on a job that finished
// long ago, its req.done already evicted from the log, ends at once with
// the terminal synthesized from the job record; it does not idle until a
// heartbeat first.
func TestStreamFinishedJobEvicted(t *testing.T) {
	svc := New(Config{TraceBuffer: 4, Heartbeat: time.Hour})
	defer svc.Close()
	svc.solveHook = func(ctx context.Context, req SolveRequest) (*SolveResult, error) {
		return &SolveResult{Solver: req.Solver, Feasible: true}, nil
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body := instanceBody(t, chainInstance(2, 5.0))
	resp := postSolve(t, srv.URL+"/v1/solve?mode=async&seed=1", body)
	var job Job
	if err := json.Unmarshal(readBody(t, resp), &job); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		j, ok := svc.jobs.get(job.ID)
		return ok && j.terminal()
	})
	for _, seed := range []string{"2", "3"} {
		_ = readBody(t, postSolve(t, srv.URL+"/v1/solve?seed="+seed, body))
	}
	if ev := svc.events.ForRequest(job.Request); len(ev) != 0 {
		t.Fatalf("the job's %d events are still in the four-event log", len(ev))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/jobs/"+job.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	msgs := readSSE(t, stream)
	if len(msgs) != 1 || !isTerminal(msgs[0]) || msgs[0].event.Phase != OutcomeOK {
		t.Fatalf("stream = %+v, want only the terminal with outcome ok", msgs)
	}
}

// stallWriter is an SSE response writer whose writes block until
// release is closed: a client that stops reading mid-stream.
type stallWriter struct {
	header  http.Header
	entered chan struct{} // closed by the first Write
	release chan struct{}
	once    sync.Once
	buf     bytes.Buffer // written only after release
}

func newStallWriter() *stallWriter {
	return &stallWriter{header: http.Header{}, entered: make(chan struct{}), release: make(chan struct{})}
}

func (w *stallWriter) Header() http.Header { return w.header }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Flush()              {}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return w.buf.Write(p)
}

// messages parses what the stream wrote.
func (w *stallWriter) messages(t *testing.T) []sseMessage {
	return readSSE(t, &http.Response{Header: w.header, Body: io.NopCloser(&w.buf)})
}

// TestStreamStalledWatcherGetsTerminal: streams on a running job, by job
// ID and by request ID, stall on their first write while the job
// finishes and other requests evict every one of its events from the
// log, req.done included. Each stream still ends, with a stream.gap and
// then the job's own req.done and terminal, as the per-stream buffer the
// log replaced guaranteed; no heartbeat is needed to get there.
func TestStreamStalledWatcherGetsTerminal(t *testing.T) {
	svc := New(Config{TraceBuffer: 8, Heartbeat: time.Hour})
	defer svc.Close()
	gate := make(chan struct{})
	svc.solveHook = func(ctx context.Context, req SolveRequest) (*SolveResult, error) {
		<-gate
		return &SolveResult{Solver: req.Solver, Feasible: true}, nil
	}
	h := svc.Handler()
	srv := httptest.NewServer(h)
	defer srv.Close()

	body := instanceBody(t, chainInstance(2, 5.0))
	var job Job
	if err := json.Unmarshal(readBody(t, postSolve(t, srv.URL+"/v1/solve?mode=async&seed=1", body)), &job); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { j, _ := svc.jobs.get(job.ID); return j.Status == JobRunning })

	routes := []string{"/v1/jobs/" + job.ID + "/events", "/v1/requests/" + job.Request + "/events"}
	writers := make([]*stallWriter, len(routes))
	ended := make([]chan struct{}, len(routes))
	for i, route := range routes {
		writers[i], ended[i] = newStallWriter(), make(chan struct{})
		go func() {
			defer close(ended[i])
			h.ServeHTTP(writers[i], httptest.NewRequest(http.MethodGet, route, nil))
		}()
		<-writers[i].entered
	}

	close(gate)
	waitFor(t, func() bool { j, _ := svc.jobs.get(job.ID); return j.terminal() })
	for seed := 2; len(svc.events.ForRequest(job.Request)) > 0; seed++ {
		_ = readBody(t, postSolve(t, srv.URL+"/v1/solve?seed="+strconv.Itoa(seed), body))
	}

	for i, route := range routes {
		close(writers[i].release)
		select {
		case <-ended[i]:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the stream never ended after its req.done was evicted", route)
		}
		msgs := writers[i].messages(t)
		n := len(msgs)
		if n < 4 || msgs[0].name != string(obs.ReqAdmit) || msgs[1].name != string(obs.StreamGap) ||
			msgs[n-2].name != string(obs.ReqDone) || !isTerminal(msgs[n-1]) || msgs[n-1].event.Phase != OutcomeOK {
			t.Fatalf("%s: stream = %+v; want req.admit, stream.gap, ..., req.done, terminal ok", route, msgs)
		}
	}
}

// TestStreamJobFinishedBeforeSubscribe: the job finishes, and its
// req.done is evicted, between the handler's snapshot of the job record
// and the stream's subscription. The stream reads the record again when
// it idles a heartbeat, finds the job finished, and ends with the
// terminal synthesized from it.
func TestStreamJobFinishedBeforeSubscribe(t *testing.T) {
	svc := New(Config{TraceBuffer: 4, Heartbeat: 20 * time.Millisecond})
	defer svc.Close()
	svc.solveHook = func(ctx context.Context, req SolveRequest) (*SolveResult, error) {
		return &SolveResult{Solver: req.Solver, Feasible: true}, nil
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body := instanceBody(t, chainInstance(2, 5.0))
	var stale Job // the 202 answer's snapshot: still queued
	if err := json.Unmarshal(readBody(t, postSolve(t, srv.URL+"/v1/solve?mode=async&seed=1", body)), &stale); err != nil {
		t.Fatal(err)
	}
	if stale.terminal() {
		t.Fatalf("202 snapshot is already terminal: %+v", stale)
	}
	waitFor(t, func() bool { j, _ := svc.jobs.get(stale.ID); return j.terminal() })
	for seed := 2; len(svc.events.ForRequest(stale.Request)) > 0; seed++ {
		_ = readBody(t, postSolve(t, srv.URL+"/v1/solve?seed="+strconv.Itoa(seed), body))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rec := httptest.NewRecorder()
	svc.streamEvents(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+stale.ID+"/events", nil).WithContext(ctx),
		stale.Request, &stale)
	if ctx.Err() != nil {
		t.Fatal("the stream idled until the client gave up")
	}
	msgs := readSSE(t, rec.Result())
	if len(msgs) != 1 || !isTerminal(msgs[0]) || msgs[0].event.Phase != OutcomeOK {
		t.Fatalf("stream = %+v, want only the terminal with outcome ok", msgs)
	}
}

// TestStreamStalledSubscriberNeverBlocksSolve is the service-level
// backpressure guarantee: a subscriber that never drains cannot delay a
// solve; its overflow surfaces in the drop counter, the stream gauges
// and, exactly, in its own gap marker.
func TestStreamStalledSubscriberNeverBlocksSolve(t *testing.T) {
	m := obs.NewMetrics()
	svc := New(Config{Metrics: m, TraceBuffer: 8})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Attach a subscriber to the eight-event log and never read it.
	sub := svc.events.Subscribe(obs.SubscribeOptions{})
	defer sub.Close()

	body := instanceBody(t, chainInstance(4, 6.0))
	start := time.Now()
	resp := postSolve(t, srv.URL+"/v1/solve?solver=optimal", body)
	_ = readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("solve with stalled subscriber took %v", elapsed)
	}
	// The middleware writes req.done after the response; wait for it so
	// the accounting below is final.
	reqID := resp.Header.Get("X-Request-ID")
	waitFor(t, func() bool {
		ev := svc.events.ForRequest(reqID)
		return len(ev) > 0 && ev[len(ev)-1].Kind == obs.ReqDone
	})
	dropped := svc.events.Stats().Dropped
	if dropped == 0 {
		t.Fatal("stalled subscriber recorded no drops")
	}
	svc.refreshGauges()
	snap := m.Snapshot()
	if snap.Gauges["stream.dropped"] != float64(dropped) {
		t.Errorf("stream.dropped gauge = %g, want %d", snap.Gauges["stream.dropped"], dropped)
	}
	if snap.Gauges["stream.subscribers"] != 1 {
		t.Errorf("stream.subscribers = %g, want 1", snap.Gauges["stream.subscribers"])
	}

	// The stalled subscriber's next read surfaces the hole in-band, with
	// its own drop count: here, every drop on the service.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	e, err := sub.Next(ctx)
	if err != nil || e.Kind != obs.StreamGap || int64(e.Node) != dropped {
		t.Fatalf("first read after stall = %+v, %v; want stream.gap with node %d", e, err, dropped)
	}
}

// TestRingOccupancyGauge pins trace.ring_events to the exact ring
// occupancy at empty, partial and full.
func TestRingOccupancyGauge(t *testing.T) {
	m := obs.NewMetrics()
	svc := New(Config{Metrics: m, TraceBuffer: 8})
	defer svc.Close()
	svc.solveHook = func(ctx context.Context, req SolveRequest) (*SolveResult, error) {
		return &SolveResult{Solver: req.Solver, Feasible: true}, nil
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	gauge := func() float64 {
		svc.refreshGauges()
		return m.Snapshot().Gauges["trace.ring_events"]
	}
	if g := gauge(); g != 0 {
		t.Fatalf("empty ring gauge %g, want 0", g)
	}
	body := instanceBody(t, chainInstance(2, 5.0))
	resp := postSolve(t, srv.URL+"/v1/solve?seed=1", body)
	_ = readBody(t, resp)
	n := svc.events.Stats().Len
	if n == 0 || n >= 8 {
		t.Fatalf("one request retained %d events, want partial fill of 8", n)
	}
	if g := gauge(); g != float64(n) {
		t.Fatalf("partial gauge %g, want %d", gauge(), n)
	}
	for i := 2; i <= 5; i++ {
		resp := postSolve(t, srv.URL+"/v1/solve?seed="+string(rune('0'+i)), body)
		_ = readBody(t, resp)
	}
	if g := gauge(); g != 8 {
		t.Fatalf("full gauge %g, want 8 (ring capacity)", g)
	}
}

// TestFlightRecorder: failed and cancelled async jobs carry their
// trailing trace events; successful jobs stay lean.
func TestFlightRecorder(t *testing.T) {
	svc := New(Config{FlightRecorder: 3})
	defer svc.Close()
	fail := errors.New("solver exploded")
	svc.solveHook = func(ctx context.Context, req SolveRequest) (*SolveResult, error) {
		if req.Seed == 13 {
			return nil, fail
		}
		return &SolveResult{Solver: req.Solver, Feasible: true}, nil
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	body := instanceBody(t, chainInstance(2, 5.0))

	launch := func(seed string) Job {
		resp := postSolve(t, srv.URL+"/v1/solve?mode=async&seed="+seed, body)
		got := readBody(t, resp)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async status %d: %s", resp.StatusCode, got)
		}
		var job Job
		if err := json.Unmarshal(got, &job); err != nil {
			t.Fatal(err)
		}
		var final Job
		waitFor(t, func() bool {
			j, ok := svc.jobs.get(job.ID)
			final = j
			return ok && j.terminal()
		})
		return final
	}

	failed := launch("13")
	if failed.Status != JobFailed {
		t.Fatalf("job status %q, want failed", failed.Status)
	}
	if len(failed.Trace) == 0 {
		t.Fatal("failed job carries no flight-recorder trace")
	}
	if len(failed.Trace) > 3 {
		t.Fatalf("flight recorder kept %d events, configured max 3", len(failed.Trace))
	}
	if last := failed.Trace[len(failed.Trace)-1]; last.Kind != obs.ReqDone {
		t.Errorf("flight recorder tail %q, want req.done", last.Kind)
	}

	okJob := launch("1")
	if okJob.Status != JobDone {
		t.Fatalf("job status %q, want done", okJob.Status)
	}
	if len(okJob.Trace) != 0 {
		t.Errorf("successful job carries %d flight-recorder events, want none", len(okJob.Trace))
	}
}
