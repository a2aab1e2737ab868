package archive

import "sort"

// Signature is what the advisor matches on: the exact canonical hash and
// the request's objective ("be" or "me"; empty reads as "be"), plus the
// shape features (task count, mesh) that define an instance family when
// the exact hash has no history.
type Signature struct {
	Hash      string `json:"hash,omitempty"`
	Objective string `json:"objective,omitempty"`
	Tasks     int    `json:"tasks"`
	MeshW     int    `json:"meshW"`
	MeshH     int    `json:"meshH"`
}

// DefaultSolver is the advisor's no-history fallback: the repaired
// heuristic is cheap and reliably feasible across the paper's workload.
const DefaultSolver = "repair"

// Advise recommends a solver (and engine options, when the winning
// history is a portfolio configuration) for an instance, from history:
// archived summaries in List order, newest first. Only ok+feasible
// records solved under sig's objective count — a BE objective says
// nothing about ME, and the two are on different scales. The policy
// escalates through evidence tiers, recording which one decided in
// Decision.Basis:
//
//   - "instance": the exact hash has history — pick the solver with the
//     lowest mean final objective on this instance.
//   - "family": no exact history, but instances with the same mesh and a
//     task count within a factor of two exist — pick the solver with the
//     most per-instance wins inside the family.
//   - "global": no family either — most wins across the whole history.
//   - "default": no usable history at all — DefaultSolver.
//
// All tie-breaks are lexicographic on the solver name, so the decision
// is a pure function of history and sig; an empty history returns the
// default decision.
func Advise(history []Summary, sig Signature) Decision {
	want := keyOf(sig.Hash, sig.Objective)
	ok := filterRecs(history, func(r Summary) bool {
		return r.Outcome == OutcomeOK && r.Feasible && r.key().objective == want.objective
	})

	if sig.Hash != "" {
		exact := filterRecs(ok, func(r Summary) bool { return r.key() == want })
		if len(exact) > 0 {
			return decideByMeanObjective(exact, "instance")
		}
	}

	family := filterRecs(ok, func(r Summary) bool {
		if r.MeshW != sig.MeshW || r.MeshH != sig.MeshH {
			return false
		}
		return r.Tasks >= (sig.Tasks+1)/2 && r.Tasks <= sig.Tasks*2
	})
	if d, found := decideByWins(family, "family"); found {
		return d
	}
	if d, found := decideByWins(ok, "global"); found {
		return d
	}
	return Decision{Solver: DefaultSolver, Basis: "default"}
}

func filterRecs(recs []Summary, keep func(Summary) bool) []Summary {
	var out []Summary
	for _, r := range recs {
		if keep(r) {
			out = append(out, r)
		}
	}
	return out
}

// decideByMeanObjective picks the solver with the lowest mean final
// objective over recs, copying engine options from its best record.
func decideByMeanObjective(recs []Summary, basis string) Decision {
	sum := map[string]float64{}
	count := map[string]int{}
	for _, r := range recs {
		sum[r.Solver] += r.FinalObjective
		count[r.Solver]++
	}
	solvers := make([]string, 0, len(count))
	for sv := range count {
		solvers = append(solvers, sv)
	}
	sort.Strings(solvers)
	winner := ""
	winMean := 0.0
	for _, sv := range solvers {
		m := sum[sv] / float64(count[sv])
		if winner == "" || m < winMean {
			winner, winMean = sv, m
		}
	}
	d := Decision{Solver: winner, Basis: basis, Candidates: len(recs)}
	d.copyEngineOptions(recs)
	return d
}

// decideByWins picks the solver with the most per-instance wins over
// recs; found is false when no instance was solved by ≥2 solvers (win
// counts need competition to mean anything).
func decideByWins(recs []Summary, basis string) (Decision, bool) {
	wins := winCounts(recs)
	if len(wins) == 0 {
		return Decision{}, false
	}
	solvers := make([]string, 0, len(wins))
	for sv := range wins {
		solvers = append(solvers, sv)
	}
	sort.Strings(solvers)
	winner := solvers[0]
	for _, sv := range solvers[1:] {
		if wins[sv] > wins[winner] {
			winner = sv
		}
	}
	d := Decision{Solver: winner, Basis: basis, Candidates: len(recs)}
	d.copyEngineOptions(recs)
	return d, true
}

// copyEngineOptions fills the decision's engine options from the
// best-objective record of the chosen solver — only meaningful for
// portfolio picks, where the options select the search trajectory.
func (d *Decision) copyEngineOptions(recs []Summary) {
	if d.Solver != "portfolio" {
		return
	}
	var best *Summary
	for i := range recs {
		r := &recs[i]
		if r.Solver != d.Solver {
			continue
		}
		if best == nil || r.FinalObjective < best.FinalObjective {
			best = r
		}
	}
	if best != nil {
		d.EngineOps = append([]string(nil), best.EngineOps...)
		d.EngineRounds = best.EngineRounds
		d.EngineBudget = best.EngineBudget
	}
}
