package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzSolveRequest drives POST /v1/solve with arbitrary bodies and query
// strings. Decoding, validation and admission must answer every input
// without panicking and without a 500: bad input is the client's error.
// The solver is stubbed, so the target exercises the HTTP layer, the
// cache key and the queue rather than the solvers; async requests are
// skipped, since their solve outlives the call.
func FuzzSolveRequest(f *testing.F) {
	valid := `{"mesh":{"w":2,"h":1,"seed":1},"graph":{"tasks":[{"wcec":5e8,"deadline":2},{"wcec":5e8,"deadline":2}],"edges":[{"from":0,"to":1,"bytes":32768}]},"horizon":5}`
	for _, seed := range []struct{ query, body string }{
		{"", valid},
		{"solver=optimal&objective=me&seed=7&timeout=2s", valid},
		{"solver=portfolio&ops=heuristic,repair&rounds=2&budget=3", valid},
		{"solver=portfolio&ops=nope&rounds=-1", valid},
		{"solver=auto", valid},
		{"solver=quantum", valid},
		{"seed=abc&timeout=soon", valid},
		{"timeout=-5s", valid},
		{"", `{"mesh":{"w":32,"h":32},"graph":{"tasks":[{"wcec":1,"deadline":1}]},"horizon":1}`},
		{"", `{"graph":{"tasks":[{"wcec":1,"deadline":1}],"edges":[{"from":0,"to":0}]},"horizon":1}`},
		{"", `{}`},
		{"", `{`},
		{"%zz&solver", "null"},
	} {
		f.Add(seed.query, []byte(seed.body))
	}
	svc := New(Config{})
	defer svc.Close()
	svc.solveHook = func(ctx context.Context, req SolveRequest) (*SolveResult, error) {
		return &SolveResult{Solver: req.Solver, Feasible: true}, nil
	}
	h := svc.Handler()
	f.Fuzz(func(t *testing.T, query string, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		r.URL.RawQuery = query
		if r.URL.Query().Get("mode") == "async" {
			return
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code == http.StatusInternalServerError {
			t.Fatalf("query %q body %q: 500: %s", query, body, w.Body.Bytes())
		}
	})
}
