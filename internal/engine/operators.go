package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"nocdeploy/internal/core"
	"nocdeploy/internal/numeric"
)

// State is the read-only snapshot one operator application works from. The
// engine clones the shared incumbent into Incumbent before Apply, so the
// operator may mutate it freely; everything else is shared and must not be
// written.
type State struct {
	Sys  *core.System
	Opts core.Options // objective and variant selection; Trace is always nil here
	// Incumbent is the operator's private clone of the engine incumbent at
	// round start, with Objective/Feasible describing it. An infeasible
	// incumbent (the repaired heuristic missed the horizon) still carries
	// the best-effort deployment.
	Incumbent *core.Deployment
	Objective float64
	Feasible  bool
	// Seed is this application's derived RNG seed: a pure function of the
	// engine seed and the global application index, so a run's operator
	// randomness is byte-replayable at any worker count.
	Seed int64
	// NodeBudget bounds the branch & bound nodes of exact repair solves;
	// ≤ 0 disables exact polishing inside destroy/repair operators.
	NodeBudget int
}

// SolveOperator is one pluggable move of the portfolio engine, the
// nextroute-style solve-operator contract: Apply transforms a state
// snapshot into a candidate deployment, or nil when the move was
// inapplicable or produced nothing; Name is the operator's identity in
// telemetry and the adaptive-weight table. A candidate is nothing more:
// the engine re-validates and scores every one centrally before
// acceptance, so a buggy operator can never corrupt the incumbent.
//
// Apply must be a pure function of (State, ctx): identical snapshots and
// seeds must yield identical candidates, because the engine's determinism
// contract — byte-identical runs at any worker count — reduces to operator
// purity once selection and reduction are serialized.
type SolveOperator interface {
	Name() string
	Apply(ctx context.Context, st *State) *core.Deployment
}

// heuristicOp re-runs the constructive three-phase heuristic with the
// application seed: random tie-breaks in phase 2 make each application a
// cheap diversification restart.
type heuristicOp struct{ repair bool }

func (o heuristicOp) Name() string {
	if o.repair {
		return "repair"
	}
	return "heuristic"
}

func (o heuristicOp) Apply(ctx context.Context, st *State) *core.Deployment {
	var (
		d    *core.Deployment
		info *core.SolveInfo
		err  error
	)
	if o.repair {
		d, info, err = core.HeuristicWithRepairCtx(ctx, st.Sys, st.Opts, st.Seed, 0)
	} else {
		d, info, err = core.HeuristicCtx(ctx, st.Sys, st.Opts, st.Seed)
	}
	if err != nil || d == nil || info.Cancelled {
		return nil
	}
	return d
}

// annealOp runs a short simulated-annealing burst from the repaired
// heuristic under the application seed.
type annealOp struct{ iters int }

func (o annealOp) Name() string { return "anneal" }

func (o annealOp) Apply(ctx context.Context, st *State) *core.Deployment {
	d, info, err := core.AnnealCtx(ctx, st.Sys, st.Opts, core.AnnealOptions{Iters: o.iters, Seed: st.Seed})
	if err != nil || d == nil || info.Cancelled {
		return nil
	}
	return d
}

// exactOp runs a node-budgeted branch & bound warm-started from the
// incumbent: the portfolio's intensification move. Workers is pinned to 1
// so the application stays a pure function of its snapshot.
type exactOp struct{ nodes int }

func (o exactOp) Name() string { return "exact" }

func (o exactOp) Apply(ctx context.Context, st *State) *core.Deployment {
	if o.nodes <= 0 {
		return nil
	}
	oo := core.OptimalOptions{MaxNodes: o.nodes, RelGap: 0.01, Workers: 1}
	if st.Feasible {
		cutoff := st.Objective
		oo.WarmDeployment = st.Incumbent
		oo.WarmStart = &cutoff
	}
	d, _, err := core.OptimalCtx(ctx, st.Sys, st.Opts, oo)
	if err != nil {
		return nil
	}
	return d
}

// improveOp wraps the first-improvement local search (processor moves and
// path flips) with a small move budget.
type improveOp struct{ moves int }

func (o improveOp) Name() string { return "improve" }

func (o improveOp) Apply(ctx context.Context, st *State) *core.Deployment {
	if ctx.Err() != nil {
		return nil
	}
	d, _, accepted := core.Improve(st.Sys, st.Incumbent, st.Opts, o.moves)
	if accepted == 0 {
		return nil
	}
	return d
}

// pathsOp wraps the path-flip-only local search.
type pathsOp struct{}

func (pathsOp) Name() string { return "paths" }

func (pathsOp) Apply(ctx context.Context, st *State) *core.Deployment {
	if ctx.Err() != nil {
		return nil
	}
	d, obj := core.ImprovePaths(st.Sys, st.Incumbent, st.Opts)
	if !numeric.LtTol(obj, st.Objective, core.EnergyTol) {
		return nil
	}
	return d
}

// regionOp is the mesh-region large-neighborhood move: unassign every slot
// placed on a random processor and its Manhattan-radius-1 neighbourhood,
// re-place them greedily by objective increase, then (budget permitting)
// polish with a warm-started node-budgeted exact solve.
type regionOp struct{ radius int }

func (o regionOp) Name() string { return "region" }

func (o regionOp) Apply(ctx context.Context, st *State) *core.Deployment {
	rng := rand.New(rand.NewSource(st.Seed))
	mesh := st.Sys.Mesh
	n := mesh.N()
	center := rng.Intn(n)
	inRegion := make([]bool, n)
	for k := 0; k < n; k++ {
		if mesh.ManhattanDistance(center, k) <= o.radius {
			inRegion[k] = true
		}
	}
	d := st.Incumbent
	var destroyed []int
	total := 0
	for i := range d.Exists {
		if !d.Exists[i] {
			continue
		}
		total++
		if inRegion[d.Proc[i]] {
			destroyed = append(destroyed, i)
		}
	}
	// A region holding nothing — or everything — is not a neighbourhood
	// move; shrink to the center processor alone before giving up.
	if len(destroyed) == 0 || len(destroyed) == total {
		destroyed = destroyed[:0]
		for i := range d.Exists {
			if d.Exists[i] && d.Proc[i] == center {
				destroyed = append(destroyed, i)
			}
		}
	}
	if len(destroyed) == 0 || len(destroyed) == total {
		return nil
	}
	return repairDestroyed(ctx, st, d, destroyed)
}

// subtreeOp is the DAG-subtree large-neighborhood move: unassign a random
// task's descendant closure (originals and their replicas), re-place
// greedily, then polish with a warm-started node-budgeted exact solve.
type subtreeOp struct{}

func (subtreeOp) Name() string { return "subtree" }

func (subtreeOp) Apply(ctx context.Context, st *State) *core.Deployment {
	rng := rand.New(rand.NewSource(st.Seed))
	g := st.Sys.Graph
	M := g.M()
	root := rng.Intn(M)
	// Breadth-first descendant closure, capped so the move stays a
	// neighbourhood and not a full restart.
	limit := M/3 + 2
	closure := []int{root}
	seen := map[int]bool{root: true}
	for qi := 0; qi < len(closure) && len(closure) < limit; qi++ {
		for _, s := range g.Succ(closure[qi]) {
			if !seen[s] && len(closure) < limit {
				seen[s] = true
				closure = append(closure, s)
			}
		}
	}
	d := st.Incumbent
	var destroyed []int
	total := 0
	for i := range d.Exists {
		if d.Exists[i] {
			total++
		}
	}
	for _, t := range closure {
		if d.Exists[t] {
			destroyed = append(destroyed, t)
		}
		if dup := t + M; d.Exists[dup] {
			destroyed = append(destroyed, dup)
		}
	}
	if len(destroyed) == 0 || len(destroyed) == total {
		return nil
	}
	return repairDestroyed(ctx, st, d, destroyed)
}

// repairDestroyed re-places the destroyed slots of d greedily — each slot,
// in incumbent schedule order, goes to the processor minimizing the
// objective among horizon-respecting placements — and then polishes the
// candidate with a warm-started node-budgeted exact solve when the state
// carries a node budget. The greedy completion alone already yields a
// structurally valid deployment, so a cancelled or fruitless polish still
// returns the repaired candidate.
func repairDestroyed(ctx context.Context, st *State, d *core.Deployment, destroyed []int) *core.Deployment {
	// Schedule order of the incumbent: predecessors come no later than
	// successors in any valid schedule, so placing in (Start, id) order
	// prices communication against already-placed predecessors.
	sort.Slice(destroyed, func(a, b int) bool {
		ia, ib := destroyed[a], destroyed[b]
		if d.Start[ia] != d.Start[ib] { //lint:allow floateq — deterministic tie-break; tolerance would break transitivity
			return d.Start[ia] < d.Start[ib]
		}
		return ia < ib
	})
	// Placements change Proc only, so one schedule order serves them all.
	order := core.ScheduleOrder(st.Sys, d)
	n := st.Sys.Mesh.N()
	for _, slot := range destroyed {
		bestK, bestObj, bestFits := -1, math.Inf(1), false
		for k := 0; k < n; k++ {
			d.Proc[slot] = k
			mk := core.Reschedule(st.Sys, d, order)
			m, err := core.ComputeMetrics(st.Sys, d)
			if err != nil {
				continue
			}
			obj := m.Objective(st.Opts.Objective)
			fits := numeric.LeqTol(mk, st.Sys.H, 1e-9)
			// Horizon-respecting placements beat overruns; within a class
			// the smaller objective wins, ties to the lowest processor.
			switch {
			case fits && !bestFits,
				fits == bestFits && numeric.LtTol(obj, bestObj, core.EnergyTol):
				bestK, bestObj, bestFits = k, obj, fits
			}
		}
		if bestK < 0 {
			return nil
		}
		d.Proc[slot] = bestK
		core.Reschedule(st.Sys, d, order)
	}
	m, err := core.ComputeMetrics(st.Sys, d)
	if err != nil {
		return nil
	}
	if st.NodeBudget > 0 {
		return exactPolish(ctx, st, d, m.Objective(st.Opts.Objective), core.CheckConstraints(st.Sys, d) == nil)
	}
	return d
}

// exactPolish re-places the repaired candidate optimally within a node
// budget: a serial branch & bound warm-started from the candidate (when it
// is feasible — pruning plus a cutoff). The candidate is returned unchanged
// when the budgeted solve finds nothing better or is cancelled.
func exactPolish(ctx context.Context, st *State, d *core.Deployment, obj float64, feasible bool) *core.Deployment {
	oo := core.OptimalOptions{MaxNodes: st.NodeBudget, RelGap: 0.01, Workers: 1}
	if feasible {
		cutoff := obj
		oo.WarmDeployment = d
		oo.WarmStart = &cutoff
	}
	pd, pinfo, err := core.OptimalCtx(ctx, st.Sys, st.Opts, oo)
	if err != nil || pd == nil || !pinfo.Feasible {
		return d
	}
	if !feasible || numeric.LtTol(pinfo.Objective, obj, core.EnergyTol) {
		return pd
	}
	return d
}

// OperatorNames lists the built-in operators in canonical order — the
// round-robin order of the engine's warmup phase and the vocabulary of the
// service's ops= selection.
func OperatorNames() []string {
	return []string{"heuristic", "repair", "improve", "paths", "anneal", "region", "subtree", "exact"}
}

// newOperator builds one built-in operator with the options' budgets.
func newOperator(name string, o Options) (SolveOperator, error) {
	switch name {
	case "heuristic":
		return heuristicOp{}, nil
	case "repair":
		return heuristicOp{repair: true}, nil
	case "improve":
		return improveOp{moves: 4}, nil
	case "paths":
		return pathsOp{}, nil
	case "anneal":
		return annealOp{iters: o.annealIters()}, nil
	case "region":
		return regionOp{radius: 1}, nil
	case "subtree":
		return subtreeOp{}, nil
	case "exact":
		return exactOp{nodes: o.nodeBudget()}, nil
	}
	return nil, fmt.Errorf("engine: unknown operator %q (known: %v)", name, OperatorNames())
}

// BuildOperators resolves operator names into operator instances configured
// with the options' budgets; nil or empty names select the full built-in
// portfolio in canonical order.
func BuildOperators(names []string, o Options) ([]SolveOperator, error) {
	if len(names) == 0 {
		names = OperatorNames()
	}
	ops := make([]SolveOperator, 0, len(names))
	for _, n := range names {
		op, err := newOperator(n, o)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// ValidOperators reports whether every name resolves to a built-in
// operator — the service's request-validation hook.
func ValidOperators(names []string) error {
	for _, n := range names {
		if _, err := newOperator(n, Options{}); err != nil {
			return err
		}
	}
	return nil
}
