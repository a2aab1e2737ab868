package obs

// Kind identifies what happened. Kinds are dotted strings, stable across
// releases: they are the vocabulary of archived JSONL traces.
type Kind string

// Event kinds, grouped by emitting subsystem.
const (
	// SolveStart/SolveDone bracket one top-level solve. Label names the
	// solver ("heuristic", "repair", "anneal", "optimal"); SolveDone
	// carries the objective in Obj and the outcome in Phase
	// ("feasible" / "infeasible" / a milp.Status string).
	SolveStart Kind = "solve.start"
	SolveDone  Kind = "solve.done"

	// BBNode: one branch & bound subproblem's LP relaxation was solved.
	// Node is the running node count, Depth the tree depth, Bound the
	// node's LP bound (model scale), Worker the solver worker (set on every
	// bb.* event only when several workers share the search).
	BBNode Kind = "bb.node"
	// BBIncumbent: a better integral solution was accepted. Obj is its
	// objective (model scale), Node the node count at acceptance.
	BBIncumbent Kind = "bb.incumbent"
	// BBBound: the global dual bound — the least bound over queued nodes
	// and the nodes workers hold — tightened. Bound is model-scale.
	BBBound Kind = "bb.bound"
	// BBPrune: a subproblem was discarded against the incumbent before or
	// after its LP solve. Depth/Bound describe the pruned node.
	BBPrune Kind = "bb.prune"
	// BBGap: the convergence state changed — a new incumbent was accepted
	// or the global dual bound tightened while an incumbent exists. Obj is
	// the incumbent objective, Bound the best proven bound (both model
	// scale) and Gap the relative optimality gap, all at the same instant,
	// so the event stream carries the convergence trajectory as a
	// first-class series (the substrate of live solve streaming: a client
	// can decide "good enough" from any single bb.gap event).
	BBGap Kind = "bb.gap"

	// LPSolve: one simplex solve finished. Iters is the total iteration
	// count, ItersP1 the phase-1 share, Phase the lp.Status string.
	LPSolve Kind = "lp.solve"
	// LPRefactor: the simplex refreshed its sparse basis factorization
	// mid-solve (periodic cadence or a stability trigger). Iters is the
	// number of eta-updated pivots the discarded factorization served.
	LPRefactor Kind = "lp.refactor"
	// LPWarmStart: a solve was seeded from Options.WarmBasis. Phase is
	// "ok" when the warm basis held or "fallback" when the solver reverted
	// to a cold start; Iters is the dual simplex pivot count.
	LPWarmStart Kind = "lp.warmstart"

	// HeurPhaseStart/HeurPhaseEnd bracket one phase of the three-phase
	// heuristic; Phase is "P1" (frequency & duplication), "P2"
	// (allocation) or "P3" (path selection). End events carry the phase
	// wall time in Dur.
	HeurPhaseStart Kind = "heur.phase.start"
	HeurPhaseEnd   Kind = "heur.phase.end"
	// HeurRepair: one repair round re-deployed after raising a level.
	// Node is the round number, Label the adjusted slot.
	HeurRepair Kind = "heur.repair"

	// AnnealAccept/AnnealReject: one Metropolis decision. Node is the
	// iteration, Obj the candidate's scalar energy (accept only).
	AnnealAccept Kind = "anneal.accept"
	AnnealReject Kind = "anneal.reject"

	// PoolTaskStart/PoolTaskDone bracket one work item on the experiment
	// runner pool. Node is the item index, Worker the pool worker; done
	// events carry the item wall time in Dur and "error" in Phase when
	// the item failed.
	PoolTaskStart Kind = "pool.task.start"
	PoolTaskDone  Kind = "pool.task.done"

	// ReqAdmit: the deployment service admitted one request. Label names
	// the requested solver; Phase is "sync" or "async". Always carries the
	// request ID in Req (as does every event of the solve it triggers —
	// see Trace.WithRequest).
	ReqAdmit Kind = "req.admit"
	// ReqStage: one serving stage of a request finished. Phase is the
	// stage name ("admission", "cache", "queue", "solve"), Dur the stage
	// wall time in seconds.
	ReqStage Kind = "req.stage"
	// ReqDone: the request finished. Phase is the outcome ("ok", "cached",
	// "coalesced", "cancelled", "rejected", "error"), Dur the end-to-end
	// service time in seconds.
	ReqDone Kind = "req.done"

	// EngineIter: the portfolio engine finished one round of operator
	// applications. Node is the round number, Obj the incumbent objective
	// after the round's reductions, Iters the total operator applications
	// so far. Emitted serially by the engine coordinator, so the engine
	// event stream is byte-identical at any worker count.
	EngineIter Kind = "engine.iter"
	// EngineOpApply: one solve operator finished one application. Label is
	// the operator name, Node the global application index, Obj the
	// candidate objective (the incumbent objective for a no-op), Bound the
	// operator's adaptive score after the reward update, Dur the
	// application wall time in seconds, and Phase the outcome:
	// "improved" (new incumbent), "feasible" (valid but not better),
	// "infeasible" (candidate failed validation) or "noop" (the operator
	// produced nothing).
	EngineOpApply Kind = "engine.op.apply"
	// EngineWeights: the engine's adaptive operator weights after one
	// round. Node is the round number; Label renders the weights
	// compactly as "op=score,op=score,…" in operator order.
	EngineWeights Kind = "engine.weights"

	// ArchiveRecord: the solve archive persisted one solve record
	// (internal/archive). Label names the solver, Phase the recorded
	// outcome, Node the encoded record size in bytes and Dur the append
	// wall time in seconds — the write happened on the archive's async
	// writer, never on the solve path.
	ArchiveRecord Kind = "archive.record"
	// ArchiveAdvise: the history-driven advisor resolved a solver=auto
	// request. Label is the recommended solver, Phase the decision basis
	// ("instance", "family", "global" or "default") and Node the number of
	// archived records consulted.
	ArchiveAdvise Kind = "archive.advise"

	// StreamGap: an in-band drop marker synthesized by a Log
	// subscription, never emitted through a Trace. A slow subscriber whose
	// cursor the log moved on past evicted events sees one StreamGap in
	// their place, ahead of the events that survived; Node is how many
	// events matching its filters were evicted since the previous marker,
	// and Req is the subscription's request filter. A request
	// subscription's own ReqDone is never among them: the log holds it,
	// and it follows the marker. Seq is zero — the marker is not part of
	// the trace's total order, it documents a hole in this subscriber's
	// view of it.
	StreamGap Kind = "stream.gap"
)

// Event is one observation. The zero value of every optional field is
// omitted from JSON, so archived JSONL stays compact; which fields are
// meaningful per kind is documented on the Kind constants.
//
// Seq and T are stamped by Trace.Emit: Seq is the 1-based total order of
// the event stream, T the time in seconds since the trace epoch.
type Event struct {
	Seq     int64   `json:"seq"`
	T       float64 `json:"t"`
	Kind    Kind    `json:"kind"`
	Req     string  `json:"req,omitempty"` // originating request ID (service solves)
	Worker  int     `json:"worker,omitempty"`
	Node    int     `json:"node,omitempty"`
	Depth   int     `json:"depth,omitempty"`
	Obj     float64 `json:"obj,omitempty"`
	Bound   float64 `json:"bound,omitempty"`
	Gap     float64 `json:"gap,omitempty"` // relative optimality gap (bb.gap)
	Iters   int     `json:"iters,omitempty"`
	ItersP1 int     `json:"itersP1,omitempty"`
	Dur     float64 `json:"dur,omitempty"` // seconds
	Phase   string  `json:"phase,omitempty"`
	Label   string  `json:"label,omitempty"`
}
