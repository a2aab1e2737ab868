package exp

import (
	"fmt"

	"nocdeploy/internal/core"
)

// RunOptimal4x4 exercises the exact branch & bound at the paper's full
// 4×4-mesh scale (N = 16, L = 6) — the configuration the paper solves
// only heuristically. The dense solver core could not touch it; the
// sparse factorized simplex with warm-started node LPs makes a
// node-budgeted exact sweep affordable, so the table reports how far a
// fixed budget gets: the heuristic incumbent, the best exact incumbent,
// the relative gap to the tree's best bound, and whether optimality was
// proved inside the budget.
func RunOptimal4x4(cfg Config) (*Table, error) {
	ms := []int{6, 8}
	if cfg.Quick {
		ms = []int{6}
	}
	reps := cfg.reps(3)
	relGap := 0.01
	t := &Table{
		Title:  "Exact branch & bound at paper scale: 4x4 mesh, L=6 (extension)",
		Note:   "warm-started, node-budgeted; gap is incumbent vs best bound at exit",
		Header: []string{"M", "E(heur)", "E(opt)", "gap", "nodes", "time", "proved"},
	}
	type result struct {
		eH, eO, gap float64
		nodes       int
		tSec        float64
		ok, proved  bool
	}
	cells, err := evalGrid(cfg, len(ms), reps, func(point, rep int) (result, error) {
		var r result
		s, err := Build(paperScale(ms[point], 1.3, cfg.instanceSeed(point, rep)))
		if err != nil {
			return r, err
		}
		opts := core.Options{Trace: cfg.Trace}
		hd, hinfo, err := core.HeuristicWithRepair(s, opts, 1, 0)
		if err != nil {
			return r, err
		}
		if !hinfo.Feasible {
			return r, nil
		}
		// An unbudgeted exact solve at this scale runs for hours; cap the
		// tree so the sweep stays inside the benchmark/CI envelope.
		budget := cfg.MaxNodes
		if budget == 0 {
			budget = 40
		}
		oo := core.OptimalOptions{
			TimeLimit:      cfg.exactTimeLimit(),
			MaxNodes:       budget,
			RelGap:         relGap,
			WarmDeployment: hd,
		}
		_, info, err := core.Optimal(s, opts, oo)
		if err != nil {
			return r, err
		}
		r.eH = hinfo.Objective
		r.nodes = info.Nodes
		r.tSec = info.Runtime.Seconds()
		if info.Feasible {
			r.eO, r.gap, r.ok = info.Objective, info.Gap, true
			r.proved = info.Gap <= relGap
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for point, m := range ms {
		var eH, eO, gap, nodes, times []float64
		proved, ok := 0, 0
		for _, r := range cells[point] {
			nodes = append(nodes, float64(r.nodes))
			times = append(times, r.tSec)
			if !r.ok {
				continue
			}
			ok++
			eH = append(eH, r.eH)
			eO = append(eO, r.eO)
			gap = append(gap, r.gap)
			if r.proved {
				proved++
			}
		}
		t.AddRow(fmt.Sprintf("%d", m), f3(mean(eH)), f3(mean(eO)), pct(mean(gap)),
			f3(mean(nodes)), fmt.Sprintf("%.3gs", mean(times)),
			fmt.Sprintf("%d/%d", proved, ok))
	}
	return t, nil
}
