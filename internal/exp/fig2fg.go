package exp

import (
	"fmt"

	"nocdeploy/internal/core"
)

// RunFig2f reproduces Fig. 2(f): solver computation time vs task count —
// the exact method's time explodes with M while the heuristic's stays
// negligible.
func RunFig2f(cfg Config) (*Table, error) {
	ms := []int{2, 3, 4, 5}
	if !cfg.Quick {
		ms = append(ms, 6)
	}
	reps := cfg.reps(3)
	// A solve is proven when it stops within the gap solve.Run's optimal
	// solves ask for; one that stops on the budget first is censored.
	relGap := 0.01
	budget := fmt.Sprint(cfg.timeLimit())
	if cfg.MaxNodes > 0 {
		budget = fmt.Sprintf("%d branch & bound nodes", cfg.MaxNodes)
	}
	t := &Table{
		Title:  "Fig 2(f): computation time vs task count M",
		Note:   fmt.Sprintf("optimal capped at %s per solve; proven = within the %g%% gap (censored entries marked >)", budget, 100*relGap),
		Header: []string{"M", "t(optimal)", "t(heuristic)", "nodes", "proven"},
	}
	type result struct {
		tOpt, tHeu float64
		nodes      int
		proven     bool
	}
	cells, err := evalGrid(cfg, len(ms), reps, func(point, rep int) (result, error) {
		var r result
		s, err := Build(smallOptimal(ms[point], 1.2, cfg.instanceSeed(point, rep)))
		if err != nil {
			return r, err
		}
		_, hinfo, err := core.Heuristic(s, core.Options{}, 1)
		if err != nil {
			return r, err
		}
		r.tHeu = hinfo.Runtime.Seconds()
		d, oinfo, err := solveOptimalWarm(s, core.Options{}, cfg)
		if err != nil {
			return r, err
		}
		r.tOpt = oinfo.Runtime.Seconds()
		r.nodes = oinfo.Nodes
		r.proven = d != nil && !oinfo.Cancelled && oinfo.Gap <= relGap
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for point, m := range ms {
		var tOpt, tHeu []float64
		nodes, proven := 0, 0
		capped := false
		for _, r := range cells[point] {
			tOpt = append(tOpt, r.tOpt)
			tHeu = append(tHeu, r.tHeu)
			nodes += r.nodes
			if r.proven {
				proven++
			} else {
				capped = true
			}
		}
		optStr := fmt.Sprintf("%.3gs", mean(tOpt))
		if capped {
			optStr = ">" + optStr
		}
		t.AddRow(fmt.Sprintf("%d", m), optStr,
			fmt.Sprintf("%.3gms", 1000*mean(tHeu)),
			fmt.Sprintf("%d", nodes/reps),
			fmt.Sprintf("%d/%d", proven, reps))
	}
	return t, nil
}

// RunFig2g reproduces Fig. 2(g): energy of the heuristic vs the optimal
// solution — the heuristic is higher by an acceptable margin (the paper
// reports ~26% on average).
func RunFig2g(cfg Config) (*Table, error) {
	ms := []int{2, 3, 4}
	if !cfg.Quick {
		ms = append(ms, 5)
	}
	reps := cfg.reps(6)
	t := &Table{
		Title:  "Fig 2(g): energy of heuristic vs optimal (max per-processor energy, J)",
		Note:   "alpha=1.0, comm-heavy (6x payloads, 30x NoC energy); 'paper-est' is Algorithm 2 with the paper's constant comm estimate, 'ours' the path-averaged variant (DESIGN.md); instances where all are feasible",
		Header: []string{"M", "E(optimal)", "E(paper-est)", "gap", "E(ours)", "gap"},
	}
	type result struct {
		eOpt, ePap, eOur float64
		ok               bool
	}
	cells, err := evalGrid(cfg, len(ms), reps, func(point, rep int) (result, error) {
		var r result
		p := smallOptimal(ms[point], 1.0, cfg.instanceSeed(point, rep))
		p.BytesScale = 6
		p.MuScale = 30
		s, err := Build(p)
		if err != nil {
			return r, err
		}
		_, paperInfo, err := core.HeuristicWithRepair(s, core.Options{CommEstimate: core.EstimateConstant}, 1, 0)
		if err != nil {
			return r, err
		}
		_, oursInfo, err := core.HeuristicWithRepair(s, core.Options{}, 1, 0)
		if err != nil {
			return r, err
		}
		_, oinfo, err := solveOptimalWarm(s, core.Options{}, cfg)
		if err != nil {
			return r, err
		}
		if !paperInfo.Feasible || !oursInfo.Feasible || !oinfo.Feasible {
			return r, nil
		}
		r.eOpt, r.ePap, r.eOur, r.ok = oinfo.Objective, paperInfo.Objective, oursInfo.Objective, true
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for point, m := range ms {
		var eOpt, ePap, eOur []float64
		for _, r := range cells[point] {
			if r.ok {
				eOpt = append(eOpt, r.eOpt)
				ePap = append(ePap, r.ePap)
				eOur = append(eOur, r.eOur)
			}
		}
		gapP, gapO := "", ""
		if mean(eOpt) > 0 {
			gapP = pct((mean(ePap) - mean(eOpt)) / mean(eOpt))
			gapO = pct((mean(eOur) - mean(eOpt)) / mean(eOpt))
		}
		t.AddRow(fmt.Sprintf("%d", m), f3(mean(eOpt)), f3(mean(ePap)), gapP, f3(mean(eOur)), gapO)
	}
	return t, nil
}
