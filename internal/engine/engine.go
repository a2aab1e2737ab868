// Package engine is the anytime ALNS portfolio engine: it races pluggable
// solve operators — adapters over the core heuristic / repair / anneal /
// budgeted-exact solvers plus large-neighborhood destroy & repair moves —
// against one shared incumbent, adapting operator selection to observed
// improvement, and returns the validated best-so-far whenever the deadline
// or context says stop.
//
// Determinism contract: a portfolio solve is a pure function of (system,
// options) — byte-identical traces and identical incumbents at any Workers
// value. The engine earns this with a batch-synchronous loop: a seeded
// coordinator serially draws a fixed-size batch of (operator, derived seed)
// applications, the batch executes concurrently through runner.Map, and the
// reduction — validation, acceptance, reward, telemetry — replays serially
// in submission order. Worker count changes only wall-clock, never the
// decision sequence, because every operator application is itself a pure
// function of its state snapshot and derived seed.
package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"nocdeploy/internal/core"
	"nocdeploy/internal/numeric"
	"nocdeploy/internal/obs"
	"nocdeploy/internal/runner"
)

// Defaults for zero-valued Options fields.
const (
	defaultRounds      = 12
	defaultNodeBudget  = 150
	defaultAnnealIters = 400
)

// Operator selection: warmupRounds rounds sweep the portfolio round-robin
// before the roulette over smoothed improvement scores takes over; alpha
// is the scores' exponential smoothing factor.
const (
	warmupRounds = 2
	alpha        = 0.3
	// scoreFloor keeps every operator selectable under roulette: a move
	// that has not paid off recently still gets occasional applications,
	// so the portfolio never collapses onto one operator.
	scoreFloor = 0.05
)

// Options configures a portfolio solve. The zero value selects the full
// built-in operator portfolio with moderate budgets.
type Options struct {
	// Operators is the portfolio; nil selects BuildOperators(nil, o) — the
	// full built-in set in canonical order.
	Operators []SolveOperator
	// Seed drives every random decision: operator roulette, application
	// seeds, operator-internal randomness. Same seed, same run.
	Seed int64
	// Rounds bounds the improvement loop (0 → 12). Each round applies
	// Batch operators; the loop also stops on context cancellation.
	Rounds int
	// Batch is the number of operator applications per round (0 → number
	// of operators). Fixed per run and independent of Workers, so the
	// application schedule is worker-count-invariant.
	Batch int
	// Workers bounds the goroutines running a batch through runner.Map
	// (0 → GOMAXPROCS via runner.Workers). Changes throughput only, never
	// results.
	Workers int
	// NodeBudget bounds each warm-started exact solve inside operators
	// (0 → 150; < 0 disables exact polishing).
	NodeBudget int
	// AnnealIters sizes the anneal operator's burst (0 → 400).
	AnnealIters int
}

func (o Options) rounds() int {
	if o.Rounds <= 0 {
		return defaultRounds
	}
	return o.Rounds
}

func (o Options) batch(nOps int) int {
	if o.Batch <= 0 {
		return nOps
	}
	return o.Batch
}

func (o Options) nodeBudget() int {
	if o.NodeBudget < 0 {
		return 0
	}
	if o.NodeBudget == 0 {
		return defaultNodeBudget
	}
	return o.NodeBudget
}

func (o Options) annealIters() int {
	if o.AnnealIters <= 0 {
		return defaultAnnealIters
	}
	return o.AnnealIters
}

// SolveCtx runs the anytime portfolio solve. It constructs an initial
// incumbent with the repaired heuristic — deliberately ignoring ctx, so a
// cancelled or deadline-expired solve still returns a validated best-effort
// deployment rather than an error — then improves it in batch-synchronous
// rounds until Rounds are exhausted or ctx is done, and returns the
// re-validated best-so-far. The returned error is non-nil only for
// malformed inputs or an empty/unknown operator portfolio.
//
// copts carries the objective, the trace and the clock, exactly as for the
// standalone core solvers; engine events (engine.iter, engine.op.apply,
// engine.weights) are emitted serially by the coordinator, and operator-
// internal solves run untraced so the event stream stays worker-invariant.
func SolveCtx(ctx context.Context, s *core.System, copts core.Options, eo Options) (*core.Deployment, *core.SolveInfo, error) {
	tr := copts.Trace
	clock := copts.Clock
	start := clock.Now()

	ops := eo.Operators
	if len(ops) == 0 {
		var err error
		if ops, err = BuildOperators(nil, eo); err != nil {
			return nil, nil, err
		}
	}

	tr.Emit(obs.Event{Kind: obs.SolveStart, Label: "portfolio"})

	// Operator solves share the caller's options minus the trace: inner
	// events would interleave nondeterministically across batch workers.
	inner := copts
	inner.Trace = nil

	// Construct: the repaired heuristic under the engine seed seeds the
	// incumbent. Background context on purpose — the anytime contract
	// promises a deployment even when the caller's deadline has already
	// passed, and the constructive heuristic is the cheap part.
	best, info0, err := core.HeuristicWithRepairCtx(context.Background(), s, inner, eo.Seed, 0)
	if err != nil {
		return nil, nil, err
	}
	constructDur := clock.Now().Sub(start)

	// The incumbent. Only the serial reduction below replaces it, and
	// every application works on its own clone, so it needs no lock.
	bestObj, bestFeas := info0.Objective, info0.Feasible
	incumbents := []core.IncumbentPoint{{T: constructDur, Obj: bestObj}}

	// Per-operator work, one entry per name in portfolio order: operators
	// sharing a name share an entry, as their engine.op.apply labels do.
	var stats []core.OperatorStat
	slot := make([]int, len(ops))
	for i, op := range ops {
		slot[i] = slices.IndexFunc(stats, func(st core.OperatorStat) bool { return st.Name == op.Name() })
		if slot[i] < 0 {
			slot[i] = len(stats)
			stats = append(stats, core.OperatorStat{Name: op.Name()})
		}
	}

	rng := rand.New(rand.NewSource(eo.Seed))
	scores := make([]float64, len(ops))
	for i := range scores {
		scores[i] = 1
	}
	batch := eo.batch(len(ops))
	budget := eo.nodeBudget()

	type application struct {
		op   int
		seed int64
		out  *core.Deployment // nil: the operator made no candidate
		dur  float64
	}

	apps := 0 // global application counter
	cancelled := false
	rounds := eo.rounds()
	for round := 0; round < rounds; round++ {
		if ctx.Err() != nil {
			cancelled = true
			break
		}

		// Serial selection: warmup rounds sweep the portfolio round-robin
		// so every operator earns an observed score before the roulette
		// starts trusting the scores.
		batchApps := make([]application, batch)
		for b := range batchApps {
			op := (round*batch + b) % len(ops)
			if round >= warmupRounds {
				op = roulette(rng, scores)
			}
			batchApps[b] = application{op: op, seed: deriveSeed(eo.Seed, apps+b)}
		}

		// Concurrent execution: each application gets a private clone of
		// the round-start incumbent and runs as a pure function of it.
		// Once ctx is done, Map starts no further application and those
		// not started reduce as noops; Map's error can only be ctx's,
		// which the round check and SolveInfo.Cancelled report. An
		// operator panic is recovered in place and reduced as a noop
		// too, so a buggy operator never stops its batch-mates.
		_, _ = runner.Map(ctx, eo.Workers, batch, func(ctx context.Context, b int) (struct{}, error) {
			a := &batchApps[b]
			defer func() { _ = recover() }()
			st := &State{
				Sys:        s,
				Opts:       inner,
				Incumbent:  best.Clone(),
				Objective:  bestObj,
				Feasible:   bestFeas,
				Seed:       a.seed,
				NodeBudget: budget,
			}
			t0 := clock.Now()
			a.out = ops[a.op].Apply(ctx, st)
			a.dur = clock.Now().Sub(t0).Seconds()
			return struct{}{}, nil
		})

		// Serial reduction in submission order: validation, acceptance,
		// reward and telemetry replay identically at any worker count.
		for _, a := range batchApps {
			apps++
			phase := "noop"
			reward := 0.0
			evObj := bestObj
			if a.out != nil {
				m, verr := core.Validate(s, a.out)
				switch {
				case m == nil:
					// Structurally invalid candidate — operator bug;
					// rejected wholesale.
					phase = "infeasible"
				case verr != nil:
					phase = "infeasible"
					evObj = m.Objective(copts.Objective)
				default:
					obj := m.Objective(copts.Objective)
					evObj = obj
					if !bestFeas || numeric.LtTol(obj, bestObj, core.EnergyTol) {
						phase = "improved"
						reward = 1
						best, bestObj, bestFeas = a.out, obj, true
						incumbents = append(incumbents, core.IncumbentPoint{
							T:   clock.Now().Sub(start),
							Obj: obj,
						})
					} else {
						phase = "feasible"
						reward = 0.1
					}
				}
			}
			scores[a.op] = (1-alpha)*scores[a.op] + alpha*reward
			st := &stats[slot[a.op]]
			st.Applies++
			st.Seconds += a.dur
			if phase == "improved" {
				st.Improvements++
			}
			tr.Emit(obs.Event{
				Kind:  obs.EngineOpApply,
				Label: ops[a.op].Name(),
				Node:  apps,
				Obj:   evObj,
				Bound: scores[a.op],
				Dur:   a.dur,
				Phase: phase,
			})
		}
		tr.Emit(obs.Event{Kind: obs.EngineIter, Node: round + 1, Obj: bestObj, Iters: apps})
		tr.Emit(obs.Event{Kind: obs.EngineWeights, Node: round + 1, Label: weightsLabel(ops, scores)})
	}

	// Return the re-validated best-so-far: acceptance already validated
	// every improvement, but the final check is the engine's own proof
	// that no operator corrupted the incumbent.
	m, verr := core.Validate(s, best)
	if m == nil {
		return nil, nil, fmt.Errorf("engine: incumbent failed validation: %w", verr)
	}
	bestObj = m.Objective(copts.Objective)
	bestFeas = verr == nil
	elapsed := clock.Now().Sub(start)
	outcome := "feasible"
	if !bestFeas {
		outcome = "infeasible"
	}
	tr.Emit(obs.Event{Kind: obs.SolveDone, Label: "portfolio", Obj: bestObj, Phase: outcome})
	info := &core.SolveInfo{
		Runtime:   elapsed,
		Feasible:  bestFeas,
		Objective: bestObj,
		Cancelled: cancelled || ctx.Err() != nil,
		Iters:     apps,
		Phases: []core.PhaseTiming{
			{Name: "construct", D: constructDur},
			{Name: "improve", D: elapsed - constructDur},
		},
		Incumbents: incumbents,
		Operators:  stats,
	}
	return best, info, nil
}

// roulette draws one operator index proportionally to its floored score —
// fitness-proportionate selection over the smoothed improvement scores.
func roulette(rng *rand.Rand, scores []float64) int {
	total := 0.0
	for _, s := range scores {
		total += math.Max(s, scoreFloor)
	}
	r := rng.Float64() * total
	acc := 0.0
	for i, s := range scores {
		acc += math.Max(s, scoreFloor)
		if r < acc {
			return i
		}
	}
	return len(scores) - 1
}

// weightsLabel renders the score table as "op=score,op=score,…" in
// portfolio order, the payload of engine.weights events.
func weightsLabel(ops []SolveOperator, scores []float64) string {
	var b strings.Builder
	for i, op := range ops {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%.3f", op.Name(), scores[i])
	}
	return b.String()
}

// deriveSeed mixes the engine seed with a global application index
// (splitmix64 finalizer), so each operator application draws from its own
// well-separated stream regardless of scheduling.
func deriveSeed(seed int64, idx int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}
