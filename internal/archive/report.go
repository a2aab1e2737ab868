package archive

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"nocdeploy/internal/numeric"
)

// ReportOptions selects the two cohorts a regression report compares.
// Exactly one of the two modes applies:
//
//   - solver mode (SolverA/SolverB set): cohort A is SolverA's records,
//     cohort B is SolverB's — "did the portfolio beat repair where both
//     ran?".
//   - window mode (Split set): cohort A is records before Split, cohort B
//     records at/after it — "did this week regress against last week?".
type ReportOptions struct {
	SolverA, SolverB string
	Split            time.Time
	MaxRows          int // per-instance table rows; 0 means 20
}

// BuildReport renders a markdown regression report comparing two record
// cohorts on their shared instances, each instance paired under one
// objective (see instanceKey). Only ok+feasible records participate;
// each cohort's score on an instance is its best (lowest) final objective
// there. Output is deterministic: rows sort by hash, then objective, and
// aggregates fold in that order.
func BuildReport(recs []Summary, o ReportOptions) (string, error) {
	solverMode := o.SolverA != "" || o.SolverB != ""
	if solverMode && (o.SolverA == "" || o.SolverB == "") {
		return "", fmt.Errorf("archive: report needs both solvers (got %q, %q)", o.SolverA, o.SolverB)
	}
	if !solverMode && o.Split.IsZero() {
		return "", fmt.Errorf("archive: report needs two solvers or a window split time")
	}
	if o.MaxRows <= 0 {
		o.MaxRows = 20
	}
	var inA func(Summary) bool
	var labelA, labelB string
	if solverMode {
		inA = func(r Summary) bool { return r.Solver == o.SolverA }
		labelA, labelB = "solver "+o.SolverA, "solver "+o.SolverB
	} else {
		inA = func(r Summary) bool { return r.Time.Before(o.Split) }
		labelA = "before " + o.Split.UTC().Format(time.RFC3339)
		labelB = "since " + o.Split.UTC().Format(time.RFC3339)
	}

	type cohortBest struct {
		obj      float64
		runtimes []float64
		n        int
	}
	bestA, bestB := map[instanceKey]*cohortBest{}, map[instanceKey]*cohortBest{}
	nA, nB := 0, 0
	for _, r := range recs {
		if r.Outcome != OutcomeOK || !r.Feasible {
			continue
		}
		var m map[instanceKey]*cohortBest
		switch {
		case inA(r):
			m = bestA
			nA++
		case !solverMode || r.Solver == o.SolverB:
			m = bestB
			nB++
		default:
			continue // solver mode: neither cohort
		}
		cb := m[r.key()]
		if cb == nil {
			cb = &cohortBest{obj: r.FinalObjective}
			m[r.key()] = cb
		} else if r.FinalObjective < cb.obj {
			cb.obj = r.FinalObjective
		}
		cb.n++
		cb.runtimes = append(cb.runtimes, r.RuntimeSeconds)
	}

	var shared []instanceKey
	for k := range bestA {
		if bestB[k] != nil {
			shared = append(shared, k)
		}
	}
	sort.Slice(shared, func(i, j int) bool {
		if shared[i].hash != shared[j].hash {
			return shared[i].hash < shared[j].hash
		}
		return shared[i].objective < shared[j].objective
	})

	var b strings.Builder
	fmt.Fprintf(&b, "# Solve archive report\n\n")
	fmt.Fprintf(&b, "- cohort A: %s (%d records)\n", labelA, nA)
	fmt.Fprintf(&b, "- cohort B: %s (%d records)\n", labelB, nB)
	fmt.Fprintf(&b, "- shared instances: %d\n\n", len(shared))
	if len(shared) == 0 {
		fmt.Fprintf(&b, "No shared instances — nothing to compare.\n")
		return b.String(), nil
	}

	fmt.Fprintf(&b, "## Per-instance best objective\n\n")
	fmt.Fprintf(&b, "| instance | E(A) | E(B) | delta | winner | objective |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|\n")
	winsA, winsB, ties := 0, 0, 0
	deltaSum := 0.0
	var rtA, rtB []float64
	for i, k := range shared {
		a, bb := bestA[k], bestB[k]
		rtA = append(rtA, a.runtimes...)
		rtB = append(rtB, bb.runtimes...)
		winner := "tie"
		switch {
		case bb.obj < a.obj:
			winner = "B"
			winsB++
		case a.obj < bb.obj:
			winner = "A"
			winsA++
		default:
			ties++
		}
		delta := 0.0
		if !numeric.IsZero(a.obj) {
			delta = (bb.obj - a.obj) / a.obj
		}
		deltaSum += delta
		if i < o.MaxRows {
			fmt.Fprintf(&b, "| %s | %.6g | %.6g | %+.2f%% | %s | %s |\n", shortHash(k.hash), a.obj, bb.obj, 100*delta, winner, k.objective)
		}
	}
	if len(shared) > o.MaxRows {
		fmt.Fprintf(&b, "\n… and %d more shared instances.\n", len(shared)-o.MaxRows)
	}
	sort.Float64s(rtA)
	sort.Float64s(rtB)
	fmt.Fprintf(&b, "\n## Summary\n\n")
	fmt.Fprintf(&b, "- wins: A %d, B %d, ties %d\n", winsA, winsB, ties)
	fmt.Fprintf(&b, "- mean objective delta (B vs A): %+.2f%%\n", 100*deltaSum/float64(len(shared)))
	fmt.Fprintf(&b, "- p50 runtime: A %.4gs, B %.4gs\n", quantile(rtA, 0.5), quantile(rtB, 0.5))
	verdict := "B and A are tied on shared instances."
	switch {
	case winsB > winsA:
		verdict = "B wins the head-to-head on shared instances."
	case winsA > winsB:
		verdict = "A wins the head-to-head on shared instances."
	}
	fmt.Fprintf(&b, "- %s\n", verdict)
	return b.String(), nil
}

// shortHash abbreviates a canonical hash for table rows.
func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12] + "…"
	}
	return h
}
