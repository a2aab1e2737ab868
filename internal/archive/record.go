// Package archive is the embedded persistent solve archive: an
// append-only store of solve records behind the deployment service
// (internal/service), queryable by instance hash, solver, outcome and
// time, and the substrate of history-driven solver advice.
//
// The design splits cleanly into:
//
//   - Record / Summary (this file): what one archived solve looks like.
//     Records carry the full story — instance signature, options,
//     outcome, energy/makespan breakdown, per-stage latencies, and the
//     solver's own incumbent trajectory and per-operator engine stats.
//     Summaries are the compact projection held in memory for every
//     record on disk.
//   - Store (store.go): segmented JSONL persistence under one directory
//     with an in-memory index, crash-safe rotation, size/age retention
//     by whole segments, and a bounded async writer that can never block
//     a solve.
//   - Advisor (advisor.go): solver recommendation from archived
//     summaries, a pure function of that history — the engine behind
//     solver=auto.
//   - Reports (report.go): markdown regression reports over two record
//     cohorts (two solvers, or two time windows).
package archive

import "time"

// Summary is the compact per-record projection the Store keeps in memory
// for every record on disk — small enough that the index stays bounded by
// the retention policy, complete enough to answer GET /v1/archive queries
// and advisor lookups without touching a segment.
type Summary struct {
	ID   string    `json:"id"`
	Time time.Time `json:"time"`

	// Instance signature: the canonical content hash plus the shape
	// features the advisor matches families on.
	Hash    string  `json:"instance"`
	Tasks   int     `json:"tasks"`
	Edges   int     `json:"edges"`
	MeshW   int     `json:"meshW"`
	MeshH   int     `json:"meshH"`
	Horizon float64 `json:"horizon,omitempty"`
	Alpha   float64 `json:"alpha,omitempty"`

	Solver    string `json:"solver"`
	Objective string `json:"objective"` // "be" or "me"

	// Portfolio engine options (solver=portfolio records only). Kept in
	// the summary so the advisor can recommend the full winning
	// configuration, not just a solver name.
	EngineOps    []string `json:"engineOps,omitempty"`
	EngineRounds int      `json:"engineRounds,omitempty"`
	EngineBudget int      `json:"engineBudget,omitempty"`

	Outcome        string  `json:"outcome"` // "ok", "cancelled", "error", "rejected"
	Feasible       bool    `json:"feasible"`
	FinalObjective float64 `json:"finalObjective,omitempty"`
	RuntimeSeconds float64 `json:"runtimeSeconds,omitempty"`
	Advised        bool    `json:"advised,omitempty"` // solver chosen by the advisor

	// seg is the ordinal of the segment holding the full record; zero
	// while the record is still pending in the writer queue. Internal to
	// the Store — deliberately unexported and absent from JSON.
	seg int64
}

// TrajPoint is one point of a solve's incumbent trajectory, as the solver
// returned it (core.SolveInfo.Incumbents). T is seconds since the solver
// started; Obj is the incumbent's objective (model scale for the exact
// solver).
type TrajPoint struct {
	T   float64 `json:"t"`
	Obj float64 `json:"obj"`
}

// OpStat aggregates one portfolio operator's work during a solve, as the
// engine returned it (core.SolveInfo.Operators).
type OpStat struct {
	Applies      int     `json:"applies"`
	Improvements int     `json:"improvements,omitempty"`
	Seconds      float64 `json:"seconds,omitempty"`
}

// Decision is one advisor recommendation: the solver (and, for
// portfolio picks, engine options) to run, and how the advisor got there.
// Basis is "instance" (this exact hash has history), "family" (nearest
// instances by task-count/mesh signature), "global" (cross-instance win
// rates) or "default" (no usable history). Candidates counts the archived
// records consulted.
type Decision struct {
	Solver       string   `json:"solver"`
	EngineOps    []string `json:"engineOps,omitempty"`
	EngineRounds int      `json:"engineRounds,omitempty"`
	EngineBudget int      `json:"engineBudget,omitempty"`
	Basis        string   `json:"basis"`
	Candidates   int      `json:"candidates"`
}

// Record is one archived solve: the Summary projection plus everything
// that does not need to stay resident — seed, request identity,
// energy/makespan breakdown, per-stage latencies, the incumbent
// trajectory and per-operator stats. Records serialize as one JSON line
// per record in the Store's segments; encoding/json's deterministic field
// order and sorted map keys make the encoding a pure function of the
// content, which the fake-clock determinism test pins.
type Record struct {
	Summary

	Request   string `json:"request,omitempty"` // originating request ID
	Seed      int64  `json:"seed,omitempty"`
	Cancelled bool   `json:"cancelled,omitempty"`
	Error     string `json:"error,omitempty"` // outcome "error"/"rejected" detail

	// Energy/makespan breakdown of the returned deployment.
	MaxEnergy float64 `json:"maxEnergy,omitempty"`
	SumEnergy float64 `json:"sumEnergy,omitempty"`
	Makespan  float64 `json:"makespan,omitempty"`
	Dups      int     `json:"dups,omitempty"`

	// Per-stage serving latencies in seconds, keyed by stage name
	// ("cache", "queue", "solve", ...).
	Stages map[string]float64 `json:"stageSeconds,omitempty"`

	// Incumbent trajectory (at most obs.SeriesCap points, decimated) and
	// per-operator engine stats, taken from the solver's SolveInfo.
	Trajectory []TrajPoint       `json:"trajectory,omitempty"`
	Ops        map[string]OpStat `json:"ops,omitempty"`

	// Advice records the advisor decision that picked this record's
	// solver (solver=auto requests only) — the decision is archived with
	// its outcome, closing the advisor's feedback loop.
	Advice *Decision `json:"advice,omitempty"`
}

// instanceKey is what every comparison between records is made within:
// one instance (canonical hash) solved under one objective. BE final
// objectives (max_k E_k) and ME ones (Σ_k E_k) are on different scales,
// so records of one instance under the two objectives never compete.
type instanceKey struct{ hash, objective string }

// keyOf builds an instanceKey; an empty objective reads as "be", the
// service's default.
func keyOf(hash, objective string) instanceKey {
	if objective == "" {
		objective = "be"
	}
	return instanceKey{hash: hash, objective: objective}
}

func (s Summary) key() instanceKey { return keyOf(s.Hash, s.Objective) }

// summary returns the index projection of r (seg unset; the Store stamps
// it when the writer lands the record in a segment).
func (r *Record) summary() Summary {
	s := r.Summary
	s.Advised = r.Advice != nil
	s.seg = 0
	return s
}

// Record outcomes. Mirrors the service's request-outcome vocabulary for
// the subset that reaches the archive (cache hits and coalesced waits are
// not separate solves and are not recorded).
const (
	OutcomeOK        = "ok"
	OutcomeCancelled = "cancelled"
	OutcomeError     = "error"
	OutcomeRejected  = "rejected"
)
