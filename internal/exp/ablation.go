package exp

import (
	"fmt"

	"nocdeploy/internal/core"
)

// The ablation runners evaluate design choices called out in DESIGN.md
// that go beyond the paper's own figures.

// RunAblationRepair compares the plain three-phase heuristic against the
// horizon-repair extension across the α sweep: repair should close much of
// the feasibility gap to the exact solver at negligible runtime.
func RunAblationRepair(cfg Config) (*Table, error) {
	alphas := []float64{0.6, 0.8, 1.0, 1.2}
	reps := cfg.reps(12)
	t := &Table{
		Title:  "Ablation: heuristic horizon repair (extension)",
		Note:   "paper scale 4x4 mesh, L=6, M=16",
		Header: []string{"alpha", "delta(plain)", "delta(repair)", "E(plain)", "E(repair)"},
	}
	type result struct {
		plainFeas, repFeas bool
		eP, eR             float64
	}
	cells, err := evalGrid(cfg, len(alphas), reps, func(point, rep int) (result, error) {
		var r result
		s, err := Build(paperScale(16, alphas[point], cfg.instanceSeed(point, rep)))
		if err != nil {
			return r, err
		}
		_, plain, err := core.Heuristic(s, core.Options{}, 1)
		if err != nil {
			return r, err
		}
		_, repaired, err := core.HeuristicWithRepair(s, core.Options{}, 1, 0)
		if err != nil {
			return r, err
		}
		r.plainFeas = plain.Feasible
		r.repFeas = repaired.Feasible
		r.eP, r.eR = plain.Objective, repaired.Objective
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for point, alpha := range alphas {
		feasP, feasR := 0, 0
		var eP, eR []float64
		for _, r := range cells[point] {
			if r.plainFeas {
				feasP++
			}
			if r.repFeas {
				feasR++
			}
			if r.plainFeas && r.repFeas {
				eP = append(eP, r.eP)
				eR = append(eR, r.eR)
			}
		}
		t.AddRow(f3(alpha),
			pct(float64(feasP)/float64(reps)),
			pct(float64(feasR)/float64(reps)),
			f3(mean(eP)), f3(mean(eR)))
	}
	return t, nil
}

// RunAblationImprove measures what first-improvement local search adds on
// top of the heuristic's objective.
func RunAblationImprove(cfg Config) (*Table, error) {
	ms := []int{12, 16, 20}
	reps := cfg.reps(10)
	t := &Table{
		Title:  "Ablation: local-search improvement on the heuristic (extension)",
		Note:   "paper scale 4x4 mesh, L=6; max per-processor energy (J)",
		Header: []string{"M", "E(heuristic)", "E(+improve)", "gain", "moves(avg)"},
	}
	type result struct {
		eH, eI, moves float64
		ok            bool
	}
	cells, err := evalGrid(cfg, len(ms), reps, func(point, rep int) (result, error) {
		var r result
		s, err := Build(paperScale(ms[point], 1.3, cfg.instanceSeed(point, rep)))
		if err != nil {
			return r, err
		}
		d, info, err := core.Heuristic(s, core.Options{}, 1)
		if err != nil {
			return r, err
		}
		if !info.Feasible {
			return r, nil
		}
		_, obj, moves := core.Improve(s, d, core.Options{}, 0)
		r.eH, r.eI, r.moves, r.ok = info.Objective, obj, float64(moves), true
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for point, m := range ms {
		var eH, eI, mv []float64
		for _, r := range cells[point] {
			if r.ok {
				eH = append(eH, r.eH)
				eI = append(eI, r.eI)
				mv = append(mv, r.moves)
			}
		}
		gain := ""
		if mean(eH) > 0 {
			gain = pct((mean(eH) - mean(eI)) / mean(eH))
		}
		t.AddRow(fmt.Sprintf("%d", m), f3(mean(eH)), f3(mean(eI)), gain, f3(mean(mv)))
	}
	return t, nil
}

// RunAblationWarmStart compares branch & bound with and without the
// heuristic incumbent: the warm start should cut nodes and runtime.
func RunAblationWarmStart(cfg Config) (*Table, error) {
	reps := cfg.reps(5)
	t := &Table{
		Title:  "Ablation: branch & bound warm start from the heuristic",
		Note:   "reduced scale 2x2 mesh, M=4, L=3",
		Header: []string{"variant", "time(avg)", "nodes(avg)", "feasible"},
	}
	type variant struct {
		t, nodes float64
		feas     bool
	}
	type result struct {
		cold, warm variant
	}
	cells, err := evalGrid(cfg, 1, reps, func(_, rep int) (result, error) {
		var r result
		s, err := Build(smallOptimal(4, 1.4, cfg.instanceSeed(0, rep)))
		if err != nil {
			return r, err
		}
		// Use the repair variant so a warm incumbent exists on most seeds.
		hd, hinfo, err := core.HeuristicWithRepair(s, core.Options{}, 1, 0)
		if err != nil {
			return r, err
		}
		for _, warm := range []bool{false, true} {
			oo := core.OptimalOptions{TimeLimit: cfg.exactTimeLimit(), MaxNodes: cfg.MaxNodes, RelGap: 0.02}
			if warm && hinfo.Feasible {
				oo.WarmDeployment = hd
			}
			_, info, err := core.Optimal(s, core.Options{}, oo)
			if err != nil {
				return r, err
			}
			v := variant{t: info.Runtime.Seconds(), nodes: float64(info.Nodes), feas: info.Feasible}
			if warm {
				r.warm = v
			} else {
				r.cold = v
			}
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"cold", "warm"} {
		var times, nodes []float64
		feas := 0
		for _, r := range cells[0] {
			v := r.cold
			if name == "warm" {
				v = r.warm
			}
			times = append(times, v.t)
			nodes = append(nodes, v.nodes)
			if v.feas {
				feas++
			}
		}
		t.AddRow(name, fmt.Sprintf("%.3gs", mean(times)), f3(mean(nodes)),
			fmt.Sprintf("%d/%d", feas, reps))
	}
	return t, nil
}

// RunAblationAnneal compares the three deployment methods this library
// offers at paper scale: repaired heuristic, heuristic + local search, and
// simulated annealing.
func RunAblationAnneal(cfg Config) (*Table, error) {
	ms := []int{12, 16, 20}
	reps := cfg.reps(6)
	t := &Table{
		Title:  "Ablation: heuristic vs local search vs simulated annealing (extension)",
		Note:   "paper scale 4x4 mesh, L=6; max per-processor energy (J)",
		Header: []string{"M", "E(heur+repair)", "E(+improve)", "E(anneal)", "t(anneal)"},
	}
	type result struct {
		eH, eI float64
		ok     bool
		eA, tA float64
		okA    bool
	}
	cells, err := evalGrid(cfg, len(ms), reps, func(point, rep int) (result, error) {
		var r result
		m := ms[point]
		s, err := Build(paperScale(m, 1.3, cfg.instanceSeed(point, rep)))
		if err != nil {
			return r, err
		}
		d, info, err := core.HeuristicWithRepair(s, core.Options{}, 1, 0)
		if err != nil {
			return r, err
		}
		if !info.Feasible {
			return r, nil
		}
		_, objI, _ := core.Improve(s, d, core.Options{}, 0)
		iters := 2000 * m
		if cfg.Quick {
			iters = 400 * m
		}
		_, ainfo, err := core.Anneal(s, core.Options{}, core.AnnealOptions{Iters: iters, Seed: 1})
		if err != nil {
			return r, err
		}
		r.eH, r.eI, r.ok = info.Objective, objI, true
		if ainfo.Feasible {
			r.eA, r.tA, r.okA = ainfo.Objective, ainfo.Runtime.Seconds(), true
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for point, m := range ms {
		var eH, eI, eA, tA []float64
		for _, r := range cells[point] {
			if r.ok {
				eH = append(eH, r.eH)
				eI = append(eI, r.eI)
			}
			if r.okA {
				eA = append(eA, r.eA)
				tA = append(tA, r.tA)
			}
		}
		t.AddRow(fmt.Sprintf("%d", m), f3(mean(eH)), f3(mean(eI)), f3(mean(eA)),
			fmt.Sprintf("%.3gs", mean(tA)))
	}
	return t, nil
}

// ExtensionRunners lists the beyond-the-paper ablations.
func ExtensionRunners() []Runner {
	return []Runner{
		{"ext-repair", RunAblationRepair},
		{"ext-improve", RunAblationImprove},
		{"ext-warmstart", RunAblationWarmStart},
		{"ext-anneal", RunAblationAnneal},
		{"ext-opt4x4", RunOptimal4x4},
		{"ext-portfolio", RunPortfolio},
		{"ext-advisor", RunAdvisor},
	}
}
