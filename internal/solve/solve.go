// Package solve is the one solve path. Run maps a solver name to the
// solver and its policy, so cmd/deploy, the deployment service and the
// experiments run each solver the same way; Validate holds the request
// rules they all enforce. A new solver is added here and nowhere else.
package solve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"nocdeploy/internal/core"
	"nocdeploy/internal/engine"
)

// Solver names accepted by Run.
const (
	Heuristic = "heuristic"
	Repair    = "repair"
	Anneal    = "anneal"
	Optimal   = "optimal"
	Portfolio = "portfolio"
)

// Names lists the solvers Run accepts, in canonical order.
func Names() []string {
	return []string{Heuristic, Repair, Anneal, Optimal, Portfolio}
}

// Options carries the settings callers tune per solve. Fields a solver
// does not use are ignored, except the engine options, which Validate
// rejects on any solver but portfolio.
type Options struct {
	Core core.Options
	Seed int64 // tie-break seed of every solver and of optimal's warm start

	// Optimal only: the branch & bound wall-clock and node budgets
	// (0 = none and the milp default). Cancellation flows through ctx.
	TimeLimit time.Duration
	MaxNodes  int

	// Workers sizes optimal's branch & bound search and the portfolio's
	// batch pool (see core.OptimalOptions.Workers, engine.Options.Workers).
	Workers int

	AnnealIters int // anneal move attempts; 0 = the core default

	// Portfolio engine options: operator names (empty = all), improvement
	// rounds and exact-repair node budget (0 = engine defaults).
	Ops    []string
	Rounds int
	Budget int
}

// Validate reports whether Run accepts name with these options: name must
// be one of Names, and engine options belong to portfolio only, with
// known operators and non-negative rounds and budget.
func (o Options) Validate(name string) error {
	names := Names()
	if !slices.Contains(names, name) {
		last := len(names) - 1
		return fmt.Errorf("unknown solver %q (want %s or %s)", name, strings.Join(names[:last], ", "), names[last])
	}
	if name != Portfolio {
		if len(o.Ops) != 0 || o.Rounds != 0 || o.Budget != 0 {
			return errors.New("engine options require solver=portfolio")
		}
		return nil
	}
	if o.Rounds < 0 || o.Budget < 0 {
		return errors.New("engine rounds/budget must be non-negative")
	}
	return engine.ValidOperators(o.Ops)
}

// Run validates the options and solves sys with the named solver under
// ctx. A cancelled solve returns its best deployment so far with
// SolveInfo.Cancelled set, or a nil deployment if it had none.
func Run(ctx context.Context, sys *core.System, name string, o Options) (*core.Deployment, *core.SolveInfo, error) {
	if err := o.Validate(name); err != nil {
		return nil, nil, err
	}
	switch name {
	case Heuristic:
		return core.HeuristicCtx(ctx, sys, o.Core, o.Seed)
	case Repair:
		return core.HeuristicWithRepairCtx(ctx, sys, o.Core, o.Seed, 0)
	case Anneal:
		return core.AnnealCtx(ctx, sys, o.Core, core.AnnealOptions{Seed: o.Seed, Iters: o.AnnealIters})
	case Optimal:
		return optimal(ctx, sys, o)
	default: // Portfolio
		eo := engine.Options{Seed: o.Seed, Rounds: o.Rounds, NodeBudget: o.Budget, Workers: o.Workers}
		var err error
		if eo.Operators, err = engine.BuildOperators(o.Ops, eo); err != nil {
			return nil, nil, err
		}
		return engine.SolveCtx(ctx, sys, o.Core, eo)
	}
}

// optimal warm-starts branch & bound from the repaired heuristic at the
// caller's seed: the incumbent prunes the tree, and a solve cancelled
// before branch & bound has one of its own still answers with it.
func optimal(ctx context.Context, sys *core.System, o Options) (*core.Deployment, *core.SolveInfo, error) {
	start := o.Core.Clock.Now()
	hd, hinfo, err := core.HeuristicWithRepairCtx(ctx, sys, o.Core, o.Seed, 0)
	if err != nil || hinfo.Cancelled {
		return hd, hinfo, err
	}
	oo := core.OptimalOptions{TimeLimit: o.TimeLimit, MaxNodes: o.MaxNodes, RelGap: 0.01, Workers: o.Workers}
	if hinfo.Feasible {
		oo.WarmDeployment = hd
	}
	d, info, err := core.OptimalCtx(ctx, sys, o.Core, oo)
	if err == nil && d == nil && info.Cancelled && hinfo.Feasible {
		// The deadline died in model build or the warm-start LP.
		return hd, &core.SolveInfo{
			Feasible:  true,
			Objective: hinfo.Objective,
			Cancelled: true,
			Runtime:   o.Core.Clock.Now().Sub(start),
		}, nil
	}
	return d, info, err
}
