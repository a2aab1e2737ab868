package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"nocdeploy/internal/archive"
	"nocdeploy/internal/core"
	"nocdeploy/internal/obs"
)

func newArchivedService(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	arch, err := archive.Open(archive.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Archive: arch}) // svc.Close closes the store
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { srv.Close(); svc.Close() })
	return svc, srv
}

func listArchive(t *testing.T, base, query string) []archive.Summary {
	t.Helper()
	resp, err := http.Get(base + "/v1/archive" + query)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/archive: %s: %s", resp.Status, body)
	}
	var recs []archive.Summary
	if err := json.Unmarshal(body, &recs); err != nil {
		t.Fatalf("archive listing: %v\n%s", err, body)
	}
	return recs
}

// TestArchiveWriteOnly is the acceptance proof that archiving never
// touches solver output: the same request against an archiving and a
// non-archiving service returns byte-identical deployments.
func TestArchiveWriteOnly(t *testing.T) {
	plain := New(Config{})
	defer plain.Close()
	plainSrv := httptest.NewServer(plain.Handler())
	defer plainSrv.Close()
	_, archSrv := newArchivedService(t)

	body := instanceBody(t, chainInstance(3, 5.0))
	for _, solver := range []string{"heuristic", "repair"} {
		url := "/v1/solve?solver=" + solver + "&seed=7"
		a := readBody(t, postSolve(t, plainSrv.URL+url, body))
		b := readBody(t, postSolve(t, archSrv.URL+url, body))
		if string(a) != string(b) {
			t.Fatalf("solver %s: archive changed the response:\n%s\nvs\n%s", solver, a, b)
		}
	}
}

func TestArchiveRecordsSolves(t *testing.T) {
	_, srv := newArchivedService(t)
	body := instanceBody(t, chainInstance(3, 5.0))

	resp := postSolve(t, srv.URL+"/v1/solve?solver=repair&seed=1", body)
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %s", resp.Status)
	}
	readBody(t, postSolve(t, srv.URL+"/v1/solve?solver=heuristic&seed=1", body))
	// Identical to the first request: a cache hit, not a solve — the
	// archive must not record it.
	readBody(t, postSolve(t, srv.URL+"/v1/solve?solver=repair&seed=1", body))

	recs := listArchive(t, srv.URL, "")
	if len(recs) != 2 {
		t.Fatalf("%d archived records, want 2 (cache hit not recorded)", len(recs))
	}
	newest := recs[0]
	if newest.Solver != "heuristic" || recs[1].Solver != "repair" {
		t.Fatalf("recorded solvers = %s, %s", newest.Solver, recs[1].Solver)
	}
	if newest.Hash == "" || newest.Hash != recs[1].Hash {
		t.Fatalf("instance hashes: %q vs %q", newest.Hash, recs[1].Hash)
	}
	if newest.Outcome != archive.OutcomeOK || !newest.Feasible {
		t.Fatalf("newest record: %+v", newest)
	}
	if newest.Tasks != 3 || newest.MeshW != 2 || newest.MeshH != 1 {
		t.Fatalf("instance signature: %+v", newest)
	}

	// Filters pass through the query layer.
	if got := listArchive(t, srv.URL, "?solver=repair"); len(got) != 1 {
		t.Fatalf("solver filter: %d, want 1", len(got))
	}
	if got := listArchive(t, srv.URL, "?limit=1"); len(got) != 1 || got[0].ID != newest.ID {
		t.Fatalf("limit filter: %+v", got)
	}

	// Full record round-trip, with the per-stage latencies attached.
	resp, err := http.Get(srv.URL + "/v1/archive/" + newest.ID)
	if err != nil {
		t.Fatal(err)
	}
	full := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET record: %s: %s", resp.Status, full)
	}
	var rec archive.Record
	if err := json.Unmarshal(full, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID != newest.ID || rec.Request == "" {
		t.Fatalf("full record: %+v", rec)
	}
	if _, ok := rec.Stages[StageSolve]; !ok {
		t.Fatalf("record has no solve-stage latency: %+v", rec.Stages)
	}

	// Unknown ID and stats envelope.
	resp, err = http.Get(srv.URL + "/v1/archive/a999")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown record: %s, want 404", resp.Status)
	}
	resp, err = http.Get(srv.URL + "/v1/archive/stats")
	if err != nil {
		t.Fatal(err)
	}
	statsBody := readBody(t, resp)
	var stats struct {
		Records int                            `json:"records"`
		Solvers map[string]archive.SolverStats `json:"solvers"`
		Store   struct{ Records, Pending int } `json:"store"`
	}
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatalf("stats: %v\n%s", err, statsBody)
	}
	if stats.Records != 2 || stats.Solvers["repair"].Count != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestArchiveRecordsSolveInfo checks archived trajectories and operator
// stats against the request's own trace slice, the event stream being the
// oracle: an optimal record's trajectory follows the request's
// bb.incumbent events, and a portfolio record's per-operator stats count
// its engine.op.apply events (a repeated operator name included) while
// its trajectory holds the constructed incumbent and each improvement.
func TestArchiveRecordsSolveInfo(t *testing.T) {
	svc, srv := newArchivedService(t)
	body := instanceBody(t, chainInstance(3, 5.0))

	// solve runs one request and returns its archived record and its
	// trace slice.
	solve := func(query string) (archive.Record, []obs.Event) {
		t.Helper()
		resp := postSolve(t, srv.URL+"/v1/solve?"+query, body)
		b := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", query, resp.StatusCode, b)
		}
		reqID := resp.Header.Get("X-Request-ID")
		resp, err := http.Get(srv.URL + "/v1/requests/" + reqID + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadJSONL(bytes.NewReader(readBody(t, resp)))
		if err != nil {
			t.Fatalf("%s: trace slice: %v", query, err)
		}
		newest := listArchive(t, srv.URL, "?limit=1")
		if len(newest) != 1 {
			t.Fatalf("%s: archive lists %d records", query, len(newest))
		}
		resp, err = http.Get(srv.URL + "/v1/archive/" + newest[0].ID)
		if err != nil {
			t.Fatal(err)
		}
		var rec archive.Record
		if err := json.Unmarshal(readBody(t, resp), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Request != reqID {
			t.Fatalf("%s: newest record is request %q, want %q", query, rec.Request, reqID)
		}
		return rec, events
	}

	rec, events := solve("solver=optimal")
	var want, got []float64
	for _, e := range events {
		if e.Kind == obs.BBIncumbent {
			want = append(want, e.Obj)
		}
	}
	for i, p := range rec.Trajectory {
		got = append(got, p.Obj)
		if p.T < 0 || i > 0 && p.T < rec.Trajectory[i-1].T {
			t.Errorf("optimal trajectory T not non-decreasing from 0 at %d: %+v", i, rec.Trajectory)
		}
	}
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("optimal trajectory objectives %v, want the bb.incumbent sequence %v", got, want)
	}
	if rec.Ops != nil {
		t.Errorf("optimal record has operator stats %+v", rec.Ops)
	}

	for _, query := range []string{"solver=portfolio&rounds=2", "solver=portfolio&rounds=2&ops=repair,improve,repair"} {
		rec, events := solve(query)
		ops := map[string]archive.OpStat{}
		improved := 0
		var best []float64 // engine.iter objectives, one per round
		for _, e := range events {
			switch e.Kind {
			case obs.EngineOpApply:
				op := ops[e.Label]
				op.Applies++
				op.Seconds += e.Dur
				if e.Phase == "improved" {
					op.Improvements++
					improved++
				}
				ops[e.Label] = op
			case obs.EngineIter:
				best = append(best, e.Obj)
			}
		}
		if len(ops) == 0 || !reflect.DeepEqual(rec.Ops, ops) {
			t.Errorf("%s: archived ops %+v, want the engine.op.apply counts %+v", query, rec.Ops, ops)
		}
		n := len(rec.Trajectory)
		if n != 1+improved || len(best) != 2 || !slices.Equal([]float64{rec.Trajectory[n-1].Obj}, best[1:]) {
			t.Errorf("%s: trajectory %+v, want the construct point plus %d improvements ending at %v",
				query, rec.Trajectory, improved, best)
		}
	}
	if ev := svc.events.Stats().Evicted; ev != 0 {
		t.Fatalf("event log evicted %d events: the trace slices are incomplete", ev)
	}
}

// TestArchiveTrajectoryDecimated: a solver trajectory longer than
// obs.SeriesCap archives at most that many points, keeping the first one
// and the T order; operators never applied are left out of the record.
func TestArchiveTrajectoryDecimated(t *testing.T) {
	const n = 1000
	incs := make([]core.IncumbentPoint, n)
	for i := range incs {
		incs[i] = core.IncumbentPoint{T: time.Duration(i) * time.Millisecond, Obj: float64(n - i)}
	}
	traj := trajectory(incs)
	if len(traj) == 0 || len(traj) > obs.SeriesCap {
		t.Fatalf("decimated trajectory has %d points, want 1..%d", len(traj), obs.SeriesCap)
	}
	if traj[0].T != 0 || traj[0].Obj != n { //lint:allow floateq — exact values of the first point
		t.Fatalf("first point = %+v, want the solve's start", traj[0])
	}
	for i := 1; i < len(traj); i++ {
		if traj[i].T <= traj[i-1].T {
			t.Fatalf("trajectory not increasing at %d: %+v", i, traj[i-1:i+1])
		}
	}
	if trajectory(nil) != nil {
		t.Error("empty trajectory not nil")
	}

	ops := opStats([]core.OperatorStat{
		{Name: "repair", Applies: 2, Improvements: 1, Seconds: 0.5},
		{Name: "exact"},
	})
	if want := map[string]archive.OpStat{"repair": {Applies: 2, Improvements: 1, Seconds: 0.5}}; !reflect.DeepEqual(ops, want) {
		t.Errorf("opStats = %+v, want %+v", ops, want)
	}
	if ops := opStats([]core.OperatorStat{{Name: "exact"}}); ops != nil {
		t.Errorf("opStats with no application = %+v, want nil", ops)
	}
}

func TestSolverAutoEndToEnd(t *testing.T) {
	_, srv := newArchivedService(t)
	body := instanceBody(t, chainInstance(3, 5.0))

	// Train: two solvers on the same instance hash.
	readBody(t, postSolve(t, srv.URL+"/v1/solve?solver=repair&seed=1", body))
	readBody(t, postSolve(t, srv.URL+"/v1/solve?solver=heuristic&seed=1", body))

	// The auto solve (distinct seed, so it is a fresh solve) must resolve
	// via the exact-hash tier and record the decision.
	resp := postSolve(t, srv.URL+"/v1/solve?solver=auto&seed=2", body)
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solver=auto: %s", resp.Status)
	}
	advised := resp.Header.Get("X-Advised-Solver")
	if advised != "repair" && advised != "heuristic" {
		t.Fatalf("X-Advised-Solver = %q", advised)
	}
	if got := resp.Header.Get("X-Advise-Basis"); got != "instance" {
		t.Fatalf("X-Advise-Basis = %q, want instance", got)
	}
	if got := resp.Header.Get("X-Solver"); got != advised {
		t.Fatalf("X-Solver = %q, want the advised %q", got, advised)
	}

	recs := listArchive(t, srv.URL, "?limit=1")
	if len(recs) != 1 || !recs[0].Advised || recs[0].Solver != advised {
		t.Fatalf("auto solve not recorded with its decision: %+v", recs)
	}

	// The standalone advise endpoint reports the same decision.
	resp, err := http.Post(srv.URL+"/v1/archive/advise", "application/json",
		strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	adviseBody := readBody(t, resp)
	var dec archive.Decision
	if err := json.Unmarshal(adviseBody, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Basis != "instance" || dec.Candidates == 0 {
		t.Fatalf("advise endpoint: %+v", dec)
	}
}

// TestAdviseReadsObjective: advice reads only history of the request's
// objective, on solver=auto and on the advise route alike, and the route
// takes the same objective parameter as /v1/solve.
func TestAdviseReadsObjective(t *testing.T) {
	_, srv := newArchivedService(t)
	body := instanceBody(t, chainInstance(3, 5.0))
	readBody(t, postSolve(t, srv.URL+"/v1/solve?solver=repair&objective=me", body))
	readBody(t, postSolve(t, srv.URL+"/v1/solve?solver=heuristic&objective=me", body))

	advise := func(query string) (int, archive.Decision) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/archive/advise"+query, "application/json",
			strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		got := readBody(t, resp)
		var dec archive.Decision
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(got, &dec); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, dec
	}
	if code, dec := advise("?objective=me"); code != http.StatusOK || dec.Basis != "instance" || dec.Candidates != 2 {
		t.Fatalf("advise me: %d %+v, want the instance tier over 2 records", code, dec)
	}
	if code, dec := advise(""); code != http.StatusOK || dec.Basis != "default" {
		t.Fatalf("advise (be): %d %+v, want the default: no be history", code, dec)
	}
	if code, _ := advise("?objective=max"); code != http.StatusBadRequest {
		t.Fatalf("advise with an unknown objective: %d, want 400", code)
	}

	resp := postSolve(t, srv.URL+"/v1/solve?solver=auto&objective=me&seed=2", body)
	readBody(t, resp)
	if got := resp.Header.Get("X-Advise-Basis"); got != "instance" {
		t.Fatalf("solver=auto objective=me: X-Advise-Basis = %q, want instance", got)
	}
}

func TestSolverAutoWithArchiveDisabled(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	body := instanceBody(t, chainInstance(3, 5.0))

	resp := postSolve(t, srv.URL+"/v1/solve?solver=auto", body)
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solver=auto without archive: %s", resp.Status)
	}
	if got := resp.Header.Get("X-Advised-Solver"); got != archive.DefaultSolver {
		t.Fatalf("X-Advised-Solver = %q, want the default %q", got, archive.DefaultSolver)
	}
	if got := resp.Header.Get("X-Advise-Basis"); got != "default" {
		t.Fatalf("X-Advise-Basis = %q", got)
	}

	// Query routes 404 without an archive; advise still answers.
	resp, err := http.Get(srv.URL + "/v1/archive")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/archive without archive: %s, want 404", resp.Status)
	}
	resp, err = http.Post(srv.URL+"/v1/archive/advise", "application/json",
		strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	adviseBody := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advise without archive: %s", resp.Status)
	}
	var dec archive.Decision
	if err := json.Unmarshal(adviseBody, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Solver != archive.DefaultSolver || dec.Basis != "default" {
		t.Fatalf("decision without archive: %+v", dec)
	}
}

// TestArchiveRestartSurvivesHistory: a second service over the same
// directory serves the first service's records.
func TestArchiveRestartSurvivesHistory(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Service, *httptest.Server) {
		arch, err := archive.Open(archive.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		svc := New(Config{Archive: arch})
		return svc, httptest.NewServer(svc.Handler())
	}
	svc, srv := open()
	body := instanceBody(t, chainInstance(3, 5.0))
	readBody(t, postSolve(t, srv.URL+"/v1/solve?solver=repair", body))
	srv.Close()
	svc.Close() // drains the archive writer

	svc2, srv2 := open()
	defer func() { srv2.Close(); svc2.Close() }()
	recs := listArchive(t, srv2.URL, "")
	if len(recs) != 1 || recs[0].Solver != "repair" {
		t.Fatalf("history after restart: %+v", recs)
	}
	// And the full record is readable from its recovered segment.
	resp, err := http.Get(srv2.URL + "/v1/archive/" + recs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	got := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET recovered record: %s: %s", resp.Status, got)
	}
}

func TestUptimeAndBuildInfoMetrics(t *testing.T) {
	tick := int64(0)
	clock := obs.Clock(func() time.Time {
		tick++
		return time.Unix(1_700_000_000+10*tick, 0)
	})
	svc := New(Config{Clock: clock})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(readBody(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	up, ok := snap.Gauges["uptime_seconds"]
	if !ok || up <= 0 {
		t.Fatalf("uptime_seconds = %v (present %v), want a positive fake-clock delta", up, ok)
	}
	found := false
	for k, v := range snap.Gauges {
		if strings.HasPrefix(k, "build_info{") {
			if v != 1 {
				t.Fatalf("build_info = %v, want 1", v)
			}
			if !strings.Contains(k, `goversion="go`) || !strings.Contains(k, "version=") {
				t.Fatalf("build_info labels: %s", k)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no build_info gauge in %v", snap.Gauges)
	}

	// Both present in the Prometheus exposition too.
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	presp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	prom := string(readBody(t, presp))
	for _, want := range []string{"\nbuild_info{", "\nuptime_seconds "} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prom exposition missing %q:\n%s", want, prom)
		}
	}
}

// TestStreamLastEventIDResume pins the server half of watch reconnect:
// a replayed stream with Last-Event-ID set skips everything the client
// already saw.
func TestStreamLastEventIDResume(t *testing.T) {
	_, srv := newArchivedService(t)
	body := instanceBody(t, chainInstance(3, 5.0))

	resp := postSolve(t, srv.URL+"/v1/solve?solver=repair&mode=async", body)
	var job Job
	if err := json.Unmarshal(readBody(t, resp), &job); err != nil {
		t.Fatal(err)
	}

	// First attach: drain to the terminal, remembering the max event id.
	maxSeq := int64(0)
	drain := func(lastID int64) (ids []int64, sawTerminal bool) {
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+job.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastID > 0 {
			req.Header.Set("Last-Event-ID", fmt.Sprint(lastID))
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := r.Body.Close(); err != nil {
				t.Fatal(err)
			}
		}()
		sc := bufio.NewScanner(r.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "id: ") {
				var id int64
				if _, err := fmt.Sscanf(line, "id: %d", &id); err == nil {
					ids = append(ids, id)
				}
			}
			if strings.HasPrefix(line, "event: solve.done") {
				sawTerminal = true
			}
			if sawTerminal && line == "" {
				return ids, true
			}
		}
		return ids, sawTerminal
	}

	ids, done := drain(0)
	if !done || len(ids) == 0 {
		t.Fatalf("first stream: terminal=%v ids=%d", done, len(ids))
	}
	for _, id := range ids {
		if id > maxSeq {
			maxSeq = id
		}
	}

	// Resume past everything: only the synthesized terminal remains.
	ids2, done2 := drain(maxSeq)
	if !done2 {
		t.Fatal("resumed stream never terminated")
	}
	for _, id := range ids2 {
		if id <= maxSeq {
			t.Fatalf("resumed stream replayed already-seen id %d (resume %d)", id, maxSeq)
		}
	}
}
