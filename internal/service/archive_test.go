package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nocdeploy/internal/archive"
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
