package exp

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"nocdeploy/internal/archive"
	"nocdeploy/internal/core"
	"nocdeploy/internal/solve"
)

// advisorSolvers are the fixed baselines the advisor chooses between —
// the cheap deterministic trio, so the table is a pure function of the
// Config at benchmark-friendly cost.
var advisorSolvers = []string{solve.Heuristic, solve.Repair, solve.Anneal}

// RunAdvisor evaluates the archive's history-driven solver advisor
// (archive.Advise, the engine behind the service's solver=auto) against
// fixed-solver baselines. Per sweep point, the trial instances are split
// into a training prefix and held-out tail: every baseline solves every
// instance, the training solves become the advisor's history, and the
// advisor — seeing only the held-out instance's shape signature, never
// its hash — picks a solver per held-out instance via the family tier.
// The table compares the advisor's achieved energy against the best and
// worst fixed solver (chosen per point in hindsight over the held-out
// set), with the hit count of per-instance optimal picks.
func RunAdvisor(cfg Config) (*Table, error) {
	ms := []int{6, 8}
	reps := cfg.reps(5)
	train := reps / 2
	if train < 1 {
		train = 1
	}
	if train >= reps {
		// One trial: train and test on it (degenerate, Quick-proof).
		train = reps - 1
		if train < 1 {
			train = 0
		}
	}
	t := &Table{
		Title:  "History-driven solver advice (extension)",
		Note:   fmt.Sprintf("2x2 mesh, L=3; %d training / %d held-out instances per point; family-tier advice", train, reps-train),
		Header: []string{"M", "E(best-fixed)", "E(worst-fixed)", "E(advisor)", "hits"},
	}
	type result struct {
		obj map[string]float64 // solver -> objective, feasible solves only
	}
	cells, err := evalGrid(cfg, len(ms), reps, func(point, rep int) (result, error) {
		r := result{obj: map[string]float64{}}
		s, err := Build(smallOptimal(ms[point], 1.2, cfg.instanceSeed(point, rep)))
		if err != nil {
			return r, err
		}
		so := solve.Options{Core: core.Options{Trace: cfg.Trace}, Seed: cfg.instanceSeed(point, rep), AnnealIters: 800}
		for _, name := range advisorSolvers {
			_, info, err := solve.Run(context.TODO(), s, name, so)
			if err != nil {
				return r, err
			}
			if info.Feasible {
				r.obj[name] = info.Objective
			}
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	for point, m := range ms {
		// Training history, newest first as archive.Store.List returns it.
		var history []archive.Summary
		for rep := 0; rep < train; rep++ {
			for _, name := range advisorSolvers {
				obj, ok := cells[point][rep].obj[name]
				if !ok {
					continue
				}
				history = append(history, archive.Summary{
					Hash:           fmt.Sprintf("exp-advisor-p%d-t%d", point, rep),
					Tasks:          m,
					MeshW:          2,
					MeshH:          2,
					Solver:         name,
					Objective:      "be",
					Outcome:        archive.OutcomeOK,
					Feasible:       true,
					FinalObjective: obj,
				})
			}
		}
		slices.Reverse(history)

		// Hindsight baselines over the held-out tail: the single fixed
		// solver with the lowest (best) / highest (worst) mean energy.
		perSolver := map[string][]float64{}
		var advised []float64
		hits, tests := 0, 0
		for rep := train; rep < reps; rep++ {
			objs := cells[point][rep].obj
			if len(objs) < len(advisorSolvers) {
				continue // a solver went infeasible; skip the pair
			}
			tests++
			for name, obj := range objs {
				perSolver[name] = append(perSolver[name], obj)
			}
			dec := archive.Advise(history, archive.Signature{Objective: "be", Tasks: m, MeshW: 2, MeshH: 2})
			advised = append(advised, objs[dec.Solver])
			best := ""
			for _, name := range advisorSolvers {
				if best == "" || objs[name] < objs[best] {
					best = name
				}
			}
			if dec.Solver == best {
				hits++
			}
		}

		names := make([]string, 0, len(perSolver))
		for name := range perSolver {
			names = append(names, name)
		}
		sort.Strings(names)
		bestE, worstE := 0.0, 0.0
		for i, name := range names {
			e := mean(perSolver[name])
			if i == 0 || e < bestE {
				bestE = e
			}
			if i == 0 || e > worstE {
				worstE = e
			}
		}
		t.AddRow(fmt.Sprintf("%d", m), f3(bestE), f3(worstE), f3(mean(advised)),
			fmt.Sprintf("%d/%d", hits, tests))
	}
	return t, nil
}
