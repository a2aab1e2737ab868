package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"nocdeploy/internal/core"
	"nocdeploy/internal/obs"
	"nocdeploy/internal/spec"
)

// chainInstance builds a 2-processor chain instance: small enough that the
// heuristic answers in milliseconds, structured enough that the exact
// solver's tree takes tens of seconds (the deadline-cancellation tests
// depend on that gap).
func chainInstance(n int, horizon float64) spec.Instance {
	inst := spec.Instance{
		Platform: spec.Platform{Levels: []spec.VFLevel{
			{Voltage: 0.85, Freq: 0.5e9},
			{Voltage: 1.10, Freq: 1.0e9},
		}},
		Mesh:    spec.Mesh{W: 2, H: 1, Seed: 1},
		Horizon: horizon,
	}
	for i := 0; i < n; i++ {
		inst.Graph.Tasks = append(inst.Graph.Tasks, spec.Task{WCEC: 5e8, Deadline: 2.0})
	}
	for i := 0; i+1 < n; i++ {
		inst.Graph.Edges = append(inst.Graph.Edges, spec.Edge{From: i, To: i + 1, Bytes: 32 << 10})
	}
	return inst
}

func instanceBody(t *testing.T, inst spec.Instance) []byte {
	t.Helper()
	b, err := json.Marshal(inst)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postSolve(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSolveSyncEndToEnd(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	inst := chainInstance(3, 5.0)
	body := instanceBody(t, inst)
	resp := postSolve(t, srv.URL+"/v1/solve?solver=heuristic", body)
	got := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if h := resp.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("first request X-Cache %q, want miss", h)
	}
	if h := resp.Header.Get("X-Solver"); h != "heuristic" {
		t.Fatalf("X-Solver %q", h)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("missing X-Request-ID")
	}
	var dep spec.Deployment
	if err := json.Unmarshal(got, &dep); err != nil {
		t.Fatalf("decoding deployment: %v", err)
	}
	if !dep.Feasible {
		t.Fatal("heuristic deployment infeasible on the chain instance")
	}
	sys, err := inst.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Validate(sys, dep.ToDeployment()); err != nil {
		t.Fatalf("returned deployment fails validation: %v", err)
	}

	// The identical request is a cache hit with an identical body.
	resp2 := postSolve(t, srv.URL+"/v1/solve?solver=heuristic", body)
	got2 := readBody(t, resp2)
	if h := resp2.Header.Get("X-Cache"); h != "hit" {
		t.Fatalf("second request X-Cache %q, want hit", h)
	}
	if !bytes.Equal(got, got2) {
		t.Fatal("cache hit returned a different deployment")
	}
	if n := svc.SolveRuns(); n != 1 {
		t.Fatalf("%d underlying solves, want 1", n)
	}
}

// TestConcurrentCoalescing is the headline acceptance test: 100 concurrent
// identical POSTs produce identical Validate-clean deployments from
// exactly one underlying solve, everything else answered by the flight or
// the cache. Run under -race in CI.
func TestConcurrentCoalescing(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	inst := chainInstance(3, 5.0)
	body := instanceBody(t, inst)
	const n = 100
	type reply struct {
		status int
		cache  string
		body   []byte
	}
	replies := make([]reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				replies[i] = reply{status: -1}
				return
			}
			b, err := io.ReadAll(resp.Body)
			if cerr := resp.Body.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				replies[i] = reply{status: -1}
				return
			}
			replies[i] = reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: b}
		}(i)
	}
	wg.Wait()

	counts := map[string]int{}
	for i, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, r.status, r.body)
		}
		counts[r.cache]++
		if !bytes.Equal(r.body, replies[0].body) {
			t.Fatalf("request %d returned a different deployment", i)
		}
	}
	if n := svc.SolveRuns(); n != 1 {
		t.Fatalf("%d underlying solves for %d identical requests, want exactly 1", n, 100)
	}
	if counts["miss"] != 1 {
		t.Fatalf("cache outcomes %v: want exactly 1 miss", counts)
	}
	if served := counts["hit"] + counts["coalesced"]; served != n-1 {
		t.Fatalf("cache outcomes %v: want %d hit+coalesced", counts, n-1)
	}
	var dep spec.Deployment
	if err := json.Unmarshal(replies[0].body, &dep); err != nil {
		t.Fatal(err)
	}
	sys, err := inst.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Validate(sys, dep.ToDeployment()); err != nil {
		t.Fatalf("deployment fails validation: %v", err)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	svc.solveHook = func(ctx context.Context, req SolveRequest) (*SolveResult, error) {
		started <- struct{}{}
		<-gate
		return &SolveResult{Solver: req.Solver, Feasible: true}, nil
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Distinct seeds give distinct cache keys, so nothing coalesces.
	urlFor := func(seed int) string { return fmt.Sprintf("%s/v1/solve?seed=%d", srv.URL, seed) }
	body := instanceBody(t, chainInstance(3, 5.0))

	type result struct {
		status int
	}
	results := make(chan result, 2)
	post := func(seed int) {
		resp, err := http.Post(urlFor(seed), "application/json", bytes.NewReader(body))
		if err != nil {
			results <- result{-1}
			return
		}
		_ = readBodyQuiet(resp)
		results <- result{resp.StatusCode}
	}
	go post(1) // occupies the single worker
	<-started
	go post(2) // sits in the single queue slot
	waitFor(t, func() bool { return svc.QueueDepth() == 2 })

	resp := postSolve(t, urlFor(3), body) // admission control rejects
	b := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status %d (%s), want 429", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if r := <-results; r.status != http.StatusOK {
			t.Fatalf("admitted request finished with %d", r.status)
		}
	}
}

func readBodyQuiet(resp *http.Response) []byte {
	b, _ := io.ReadAll(resp.Body) //lint:allow errdrop — best-effort read in test helper
	_ = resp.Body.Close()         //lint:allow errdrop — best-effort close in test helper
	return b
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestDeadlineCancelledOptimal: an optimal solve with a deadline far below
// the tree's needs returns promptly with the warm-started incumbent and
// the cancellation surfaced in headers — and the truncated result is NOT
// cached, so an unhurried retry gets a fresh solve.
func TestDeadlineCancelledOptimal(t *testing.T) {
	inst := chainInstance(6, 9.2)
	// Precondition: the repaired heuristic must be feasible so the exact
	// solve is warm-started (both are deterministic).
	sys, err := inst.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, hinfo, err := core.HeuristicWithRepair(sys, core.Options{}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !hinfo.Feasible {
		t.Fatal("test instance: repaired heuristic infeasible; pick another horizon")
	}

	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	body := instanceBody(t, inst)

	start := time.Now()
	resp := postSolve(t, srv.URL+"/v1/solve?solver=optimal&timeout=400ms", body)
	got := readBody(t, resp)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if h := resp.Header.Get("X-Solve-Cancelled"); h != "true" {
		t.Fatalf("X-Solve-Cancelled %q, want true (elapsed %v)", h, elapsed)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("cancelled solve took %v", elapsed)
	}
	var dep spec.Deployment
	if err := json.Unmarshal(got, &dep); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Validate(sys, dep.ToDeployment()); err != nil {
		t.Fatalf("cancelled incumbent fails validation: %v", err)
	}

	// Truncated results must not be cached.
	resp2 := postSolve(t, srv.URL+"/v1/solve?solver=optimal&timeout=400ms", body)
	_ = readBody(t, resp2)
	if h := resp2.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("retry after cancelled solve X-Cache %q, want miss", h)
	}

	// Shutdown drains cleanly: no stuck solver goroutines.
	done := make(chan struct{})
	go func() { svc.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not drain within 30s — leaked solver goroutine?")
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	svc := New(Config{})
	svc.solveHook = func(ctx context.Context, req SolveRequest) (*SolveResult, error) {
		return &SolveResult{Solver: req.Solver, Feasible: true}, nil
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body := instanceBody(t, chainInstance(3, 5.0))
	resp := postSolve(t, srv.URL+"/v1/solve?mode=async", body)
	got := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async status %d: %s", resp.StatusCode, got)
	}
	var job Job
	if err := json.Unmarshal(got, &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Status != JobQueued {
		t.Fatalf("job %+v", job)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+job.ID {
		t.Fatalf("Location %q", loc)
	}

	waitFor(t, func() bool {
		r, err := http.Get(srv.URL + "/v1/jobs/" + job.ID)
		if err != nil {
			return false
		}
		b := readBodyQuiet(r)
		if r.StatusCode != http.StatusOK {
			return false
		}
		if err := json.Unmarshal(b, &job); err != nil {
			return false
		}
		return job.Status == JobDone
	})
	if job.Result == nil || !job.Result.Feasible {
		t.Fatalf("finished job %+v missing result", job)
	}
	if job.Cache != "miss" {
		t.Fatalf("job cache outcome %q, want miss", job.Cache)
	}
	if job.Finished == nil {
		t.Fatal("finished job has no finish time")
	}

	r, err := http.Get(srv.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	_ = readBodyQuiet(r)
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", r.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	svc := New(Config{Metrics: obs.NewMetrics()})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body := instanceBody(t, chainInstance(3, 5.0))
	for i := 0; i < 3; i++ {
		resp := postSolve(t, srv.URL+"/v1/solve", body)
		_ = readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	got := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(got, &snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	if snap.Counters["http.requests"] < 4 {
		t.Fatalf("http.requests %d, want ≥4", snap.Counters["http.requests"])
	}
	if _, ok := snap.Gauges["queue.depth"]; !ok {
		t.Fatal("metrics missing queue.depth gauge")
	}
	ratio, ok := snap.Gauges["cache.hit_ratio"]
	if !ok {
		t.Fatal("metrics missing cache.hit_ratio gauge")
	}
	// 3 identical requests: 1 miss + 2 hits.
	if ratio < 0.6 || ratio > 0.7 {
		t.Fatalf("cache.hit_ratio %g, want ≈2/3", ratio)
	}
	if snap.Gauges["solve.runs"] != 1 {
		t.Fatalf("solve.runs %g, want 1", snap.Gauges["solve.runs"])
	}
}

func TestShutdownDrainsAndRejects(t *testing.T) {
	svc := New(Config{})
	release := make(chan struct{})
	entered := make(chan struct{})
	svc.solveHook = func(ctx context.Context, req SolveRequest) (*SolveResult, error) {
		close(entered)
		<-release
		return &SolveResult{Solver: req.Solver, Feasible: true}, nil
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	body := instanceBody(t, chainInstance(3, 5.0))
	resp := postSolve(t, srv.URL+"/v1/solve?mode=async", body)
	got := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async status %d: %s", resp.StatusCode, got)
	}
	var job Job
	if err := json.Unmarshal(got, &job); err != nil {
		t.Fatal(err)
	}
	<-entered

	closed := make(chan struct{})
	go func() { svc.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a job was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not finish after the job released")
	}

	// The drained job completed rather than being dropped.
	j, ok := svc.jobs.get(job.ID)
	if !ok || j.Status != JobDone {
		t.Fatalf("job after drain: %+v (ok=%v)", j, ok)
	}
	// New work is rejected while closed.
	resp = postSolve(t, srv.URL+"/v1/solve", body)
	_ = readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close solve status %d, want 503", resp.StatusCode)
	}
	r, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = readBodyQuiet(r)
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close healthz %d, want 503", r.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	cases := []struct {
		name string
		url  string
		body string
		want int
	}{
		{"malformed json", "/v1/solve", "{", http.StatusBadRequest},
		{"unknown solver", "/v1/solve?solver=quantum", `{"graph":{"tasks":[{"wcec":1,"deadline":1}]}}`, http.StatusBadRequest},
		{"bad timeout", "/v1/solve?timeout=soon", `{"graph":{"tasks":[{"wcec":1,"deadline":1}]}}`, http.StatusBadRequest},
		{"empty instance", "/v1/solve", `{}`, http.StatusBadRequest},
		{"unbuildable instance", "/v1/solve", `{"graph":{"tasks":[{"wcec":1,"deadline":1}]},"horizon":1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+tc.url, "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		b := readBodyQuiet(resp)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, b, tc.want)
		}
	}
}

// TestOversizedMeshRejected: a one-task instance on a 32×32 mesh, a body
// of about a hundred bytes, is refused with 400 before its mesh is
// built, instead of exhausting the daemon's memory.
func TestOversizedMeshRejected(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	inst := chainInstance(1, 5.0)
	inst.Mesh.W, inst.Mesh.H = 32, 32
	resp := postSolve(t, srv.URL+"/v1/solve", instanceBody(t, inst))
	b := readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(b, []byte("mesh")) {
		t.Fatalf("32x32 mesh: status %d (%s), want 400 naming the mesh", resp.StatusCode, b)
	}
}

func TestHealthz(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	r, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b := readBodyQuiet(r)
	if r.StatusCode != http.StatusOK || !bytes.Contains(b, []byte("ok")) {
		t.Fatalf("healthz %d %s", r.StatusCode, b)
	}
}
