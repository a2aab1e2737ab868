// Solve archive integration: recording finished solves, the
// history-driven solver=auto advisor, and the /v1/archive query API.
//
// Recording is write-only by construction: the archive reads the
// solver's returned SolveInfo in a post-settlement Append — it never
// holds the solve path (Append is non-blocking) and never feeds anything
// back into the solver. The one read path, solver=auto, happens before
// normalization and turns into an ordinary explicit-solver request.
package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"nocdeploy/internal/archive"
	"nocdeploy/internal/cache"
	"nocdeploy/internal/core"
	"nocdeploy/internal/obs"
	"nocdeploy/internal/spec"
)

// solveStages carries the leader's stage timings into the archive
// record.
type solveStages struct {
	queue, solve, e2e time.Duration
}

// recordSolve archives one settled leader solve, taking its trajectory
// and operator stats from the solver's info (nil when the solve never
// ran). Cache hits and coalesced waits are not separate solves and are
// deliberately not recorded — the archive answers "what did solving
// cost", not "what did serving cost" (the metrics registry covers the
// latter).
func (s *Service) recordSolve(req SolveRequest, hash string, res *SolveResult, info *core.SolveInfo, err error, st solveStages) {
	if s.arch == nil {
		return
	}
	rec := &archive.Record{
		Summary: archive.Summary{
			Hash:      hash,
			Tasks:     len(req.Instance.Graph.Tasks),
			Edges:     len(req.Instance.Graph.Edges),
			MeshW:     req.Instance.Mesh.W,
			MeshH:     req.Instance.Mesh.H,
			Horizon:   req.Instance.Horizon,
			Alpha:     req.Instance.Alpha,
			Solver:    req.Solver,
			Objective: req.Objective,
			Outcome:   classifyOutcome(cache.Miss, res, err),
		},
		Request: req.RequestID,
		Seed:    req.Seed,
		Stages: map[string]float64{
			StageQueue: st.queue.Seconds(),
			StageSolve: st.solve.Seconds(),
			StageE2E:   st.e2e.Seconds(),
		},
		Advice: req.Advice,
	}
	if info != nil {
		rec.Trajectory = trajectory(info.Incumbents)
		rec.Ops = opStats(info.Operators)
	}
	if req.Solver == SolverPortfolio {
		rec.EngineOps = req.EngineOps
		rec.EngineRounds = req.EngineRounds
		rec.EngineBudget = req.EngineBudget
	}
	if err != nil {
		rec.Error = err.Error()
	}
	if res != nil {
		rec.Feasible = res.Feasible
		rec.Cancelled = res.Cancelled
		rec.FinalObjective = res.Deployment.Objective
		rec.RuntimeSeconds = res.Runtime
		rec.MaxEnergy = res.Deployment.MaxEnergy
		rec.SumEnergy = res.Deployment.SumEnergy
		rec.Makespan = res.Deployment.Makespan
		rec.Dups = res.Deployment.Dups
	}
	s.arch.Append(rec)
}

// trajectory converts a solver's incumbent trajectory into archive
// points, at most obs.SeriesCap of them (obs.Decimated keeps the first
// point and the shape of a longer one).
func trajectory(incs []core.IncumbentPoint) []archive.TrajPoint {
	var traj obs.Decimated[archive.TrajPoint]
	for _, inc := range incs {
		traj.Add(archive.TrajPoint{T: inc.T.Seconds(), Obj: inc.Obj}, obs.SeriesCap)
	}
	return traj.Points()
}

// opStats keys the portfolio's per-operator work by operator name,
// leaving out operators never applied; nil when none was.
func opStats(stats []core.OperatorStat) map[string]archive.OpStat {
	var ops map[string]archive.OpStat
	for _, st := range stats {
		if st.Applies == 0 {
			continue
		}
		if ops == nil {
			ops = map[string]archive.OpStat{}
		}
		ops[st.Name] = archive.OpStat{Applies: st.Applies, Improvements: st.Improvements, Seconds: st.Seconds}
	}
	return ops
}

// resolveAuto turns solver=auto into a concrete solver using the
// archive's history under the request's objective, stamping the decision
// on the request (it is archived with the solve) and emitting an
// archive.advise event. Idempotent: a request that already names a
// solver passes through untouched, so both the HTTP layer and direct
// Solve callers can call it.
func (s *Service) resolveAuto(req *SolveRequest) {
	if req.Solver != SolverAuto {
		return
	}
	objective, err := normObjective(req.Objective)
	if err != nil {
		return // normalize rejects the request with this error
	}
	dec := s.advise(req.Instance, objective)
	req.Solver = dec.Solver
	req.EngineOps = dec.EngineOps
	req.EngineRounds = dec.EngineRounds
	req.EngineBudget = dec.EngineBudget
	req.Advice = &dec
	if tr := s.trace.WithRequest(req.RequestID); tr.Enabled() {
		tr.Emit(obs.Event{
			Kind:  obs.ArchiveAdvise,
			Label: dec.Solver,
			Phase: dec.Basis,
			Node:  dec.Candidates,
		})
	}
}

// advise computes the advisor decision for an instance solved under a
// normalized objective. Works with the archive disabled too: a nil store
// lists no history, which means the default solver, so solver=auto
// degrades gracefully instead of erroring.
func (s *Service) advise(inst spec.Instance, objective string) archive.Decision {
	sig := archive.Signature{
		Objective: objective,
		Tasks:     len(inst.Graph.Tasks),
		MeshW:     inst.Mesh.W,
		MeshH:     inst.Mesh.H,
	}
	if h, err := inst.CanonicalHash(); err == nil {
		sig.Hash = h
	}
	return archive.Advise(s.arch.List(archive.Filter{Outcome: archive.OutcomeOK}), sig)
}

// setBuildInfo publishes the build_info gauge: constant 1, with the
// module version and Go toolchain as labels — the standard Prometheus
// idiom for joining version metadata onto any other series.
func (s *Service) setBuildInfo() {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	s.met.Set(obs.Key("build_info", "goversion", runtime.Version(), "version", version), 1)
}

// parseArchiveFilter reads the /v1/archive query parameters: instance
// (hash or prefix), solver, outcome, limit, and since/until as either
// RFC3339 timestamps or look-back durations ("1h" = the last hour).
func (s *Service) parseArchiveFilter(q url.Values) (archive.Filter, error) {
	var f archive.Filter
	f.Instance = q.Get("instance")
	f.Solver = q.Get("solver")
	f.Outcome = q.Get("outcome")
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return f, errors.Join(ErrBadRequest, errors.New("limit: want a non-negative integer, got "+v))
		}
		f.Limit = n
	}
	var err error
	if f.Since, err = s.parseTimeOrAgo(q.Get("since")); err != nil {
		return f, errors.Join(ErrBadRequest, err)
	}
	if f.Until, err = s.parseTimeOrAgo(q.Get("until")); err != nil {
		return f, errors.Join(ErrBadRequest, err)
	}
	return f, nil
}

// parseTimeOrAgo accepts an RFC3339 timestamp or a duration meaning
// "that long ago" (per the service clock); empty means zero time.
func (s *Service) parseTimeOrAgo(v string) (time.Time, error) {
	if v == "" {
		return time.Time{}, nil
	}
	if t, err := time.Parse(time.RFC3339, v); err == nil {
		return t, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return time.Time{}, errors.New("want RFC3339 or a duration, got " + v)
	}
	return s.clock.Now().Add(-d), nil
}

// handleArchiveList serves GET /v1/archive: matching record summaries,
// newest first.
func (s *Service) handleArchiveList(w http.ResponseWriter, r *http.Request) {
	s.met.Add("http.requests", 1)
	if s.arch == nil {
		s.writeError(w, http.StatusNotFound, errors.New("solve archive disabled (no -archive-dir)"))
		return
	}
	f, err := s.parseArchiveFilter(r.URL.Query())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusOK, s.arch.List(f))
}

// handleArchiveGet serves GET /v1/archive/{id}: one full record.
func (s *Service) handleArchiveGet(w http.ResponseWriter, r *http.Request) {
	s.met.Add("http.requests", 1)
	if s.arch == nil {
		s.writeError(w, http.StatusNotFound, errors.New("solve archive disabled (no -archive-dir)"))
		return
	}
	rec, ok := s.arch.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, errors.New("unknown archive record"))
		return
	}
	s.writeJSON(w, http.StatusOK, rec)
}

// archiveStatsBody is the /v1/archive/stats envelope: per-solver
// aggregates plus the store's operational accounting.
type archiveStatsBody struct {
	archive.Stats
	Store archive.StoreStats `json:"store"`
}

// handleArchiveStats serves GET /v1/archive/stats (same filters as the
// list route).
func (s *Service) handleArchiveStats(w http.ResponseWriter, r *http.Request) {
	s.met.Add("http.requests", 1)
	if s.arch == nil {
		s.writeError(w, http.StatusNotFound, errors.New("solve archive disabled (no -archive-dir)"))
		return
	}
	f, err := s.parseArchiveFilter(r.URL.Query())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusOK, archiveStatsBody{
		Stats: s.arch.Stats(f),
		Store: s.arch.StoreStats(),
	})
}

// handleArchiveAdvise serves POST /v1/archive/advise: the advisor
// decision for an instance (body: spec.Instance JSON) under the
// objective query parameter (be, the default, or me, as for
// /v1/solve) without running a solve — what solver=auto would pick right
// now. Works with the archive disabled (default decision), unlike the
// query routes: advice always has an answer.
func (s *Service) handleArchiveAdvise(w http.ResponseWriter, r *http.Request) {
	s.met.Add("http.requests", 1)
	objective, err := normObjective(r.URL.Query().Get("objective"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	var inst spec.Instance
	if err := json.NewDecoder(r.Body).Decode(&inst); err != nil {
		s.writeError(w, http.StatusBadRequest, errors.Join(ErrBadRequest, err))
		return
	}
	s.writeJSON(w, http.StatusOK, s.advise(inst, objective))
}
