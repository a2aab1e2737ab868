package archive

import "testing"

// history lists recs, given in append order, as Store.List returns
// them: newest first.
func history(recs ...*Record) []Summary {
	out := make([]Summary, 0, len(recs))
	for i := len(recs) - 1; i >= 0; i-- {
		out = append(out, recs[i].summary())
	}
	return out
}

func TestAdviseInstanceTier(t *testing.T) {
	h := history(
		rec("h1", "repair", 10, at(1)),
		rec("h1", "anneal", 8, at(2)),
		rec("h1", "anneal", 9, at(3)),
		rec("h2", "repair", 1, at(4)), // other instance: must not matter
	)
	d := Advise(h, Signature{Hash: "h1", Tasks: 8, MeshW: 2, MeshH: 2})
	if d.Solver != "anneal" || d.Basis != "instance" {
		t.Fatalf("decision = %+v, want anneal via instance tier", d)
	}
	if d.Candidates != 3 {
		t.Fatalf("candidates = %d, want 3", d.Candidates)
	}
}

func TestAdviseFamilyTier(t *testing.T) {
	// No history for the target hash; family = same mesh, task count
	// within 2x. Two instances where anneal beats repair head-to-head.
	h := history(
		rec("h1", "repair", 10, at(1)),
		rec("h1", "anneal", 8, at(2)),
		rec("h2", "repair", 12, at(3)),
		rec("h2", "anneal", 11, at(4)),
	)
	d := Advise(h, Signature{Hash: "h-unseen", Tasks: 10, MeshW: 2, MeshH: 2})
	if d.Solver != "anneal" || d.Basis != "family" {
		t.Fatalf("decision = %+v, want anneal via family tier", d)
	}

	// A different mesh breaks the family: falls through to global (same
	// records, so same winner, different basis).
	d = Advise(h, Signature{Hash: "h-unseen", Tasks: 10, MeshW: 4, MeshH: 4})
	if d.Solver != "anneal" || d.Basis != "global" {
		t.Fatalf("decision = %+v, want anneal via global tier", d)
	}
}

func TestAdviseDefaultTier(t *testing.T) {
	// Single-solver history has no head-to-head wins: win-based tiers
	// refuse to decide and the default solver comes back.
	h := history(rec("h1", "anneal", 8, at(1)))
	d := Advise(h, Signature{Hash: "h-unseen", Tasks: 8, MeshW: 2, MeshH: 2})
	if d.Solver != DefaultSolver || d.Basis != "default" {
		t.Fatalf("decision = %+v, want the default solver", d)
	}

	// Empty history (a disabled archive lists none): same degradation,
	// so solver=auto works with the archive disabled.
	d = Advise(nil, Signature{Tasks: 8})
	if d.Solver != DefaultSolver || d.Basis != "default" {
		t.Fatalf("empty-history decision = %+v", d)
	}
}

func TestAdvisePortfolioCarriesEngineOptions(t *testing.T) {
	p1 := rec("h1", "portfolio", 7, at(1))
	p1.EngineOps = []string{"ruin", "exact"}
	p1.EngineRounds = 3
	p1.EngineBudget = 16
	p2 := rec("h1", "portfolio", 9, at(2)) // worse: its options must lose
	p2.EngineOps = []string{"anneal"}
	h := history(p1, rec("h1", "repair", 10, at(3)), p2)
	d := Advise(h, Signature{Hash: "h1", Tasks: 8, MeshW: 2, MeshH: 2})
	if d.Solver != "portfolio" {
		t.Fatalf("decision = %+v", d)
	}
	if len(d.EngineOps) != 2 || d.EngineOps[0] != "ruin" || d.EngineRounds != 3 || d.EngineBudget != 16 {
		t.Fatalf("engine options not copied from the best record: %+v", d)
	}
}

func TestAdviseIgnoresInfeasibleAndFailed(t *testing.T) {
	bad := rec("h1", "anneal", 1, at(1))
	bad.Outcome = OutcomeError
	bad.Feasible = false
	infeasible := rec("h1", "heuristic", 0.5, at(2))
	infeasible.Feasible = false
	h := history(bad, infeasible, rec("h1", "repair", 10, at(3)))
	d := Advise(h, Signature{Hash: "h1", Tasks: 8, MeshW: 2, MeshH: 2})
	if d.Solver != "repair" || d.Basis != "instance" {
		t.Fatalf("decision = %+v: failed/infeasible records leaked into advice", d)
	}
}

func TestAdviseDeterministicTieBreak(t *testing.T) {
	// Identical objectives: the lexically smaller solver must win, every
	// time, regardless of append order.
	for range 5 {
		h := history(
			rec("h1", "zeta", 10, at(1)),
			rec("h1", "alpha", 10, at(2)),
		)
		d := Advise(h, Signature{Hash: "h1", Tasks: 8, MeshW: 2, MeshH: 2})
		if d.Solver != "alpha" {
			t.Fatalf("tie broke to %q, want alpha", d.Solver)
		}
	}
}

// objectiveMix is one instance solved under both objectives: repair's
// BE (max_k E_k) 3.0 is on a different scale from the ME (Σ_k E_k)
// records, where anneal's 10.0 beats repair's 12.0.
func objectiveMix() []*Record {
	be := rec("h1", "repair", 3, at(1))
	annealME := rec("h1", "anneal", 10, at(2))
	annealME.Objective = "me"
	repairME := rec("h1", "repair", 12, at(3))
	repairME.Objective = "me"
	return []*Record{be, annealME, repairME}
}

// TestAdviseKeysByObjective: advice compares records of the request's
// objective only. Mixing the scales would give repair a mean of 7.5 and
// the ME pick.
func TestAdviseKeysByObjective(t *testing.T) {
	h := history(objectiveMix()...)
	d := Advise(h, Signature{Hash: "h1", Objective: "me", Tasks: 8, MeshW: 2, MeshH: 2})
	if d.Solver != "anneal" || d.Basis != "instance" || d.Candidates != 2 {
		t.Fatalf("me decision = %+v, want anneal from 2 instance records", d)
	}
	for _, obj := range []string{"be", ""} { // empty reads as be
		d = Advise(h, Signature{Hash: "h1", Objective: obj, Tasks: 8, MeshW: 2, MeshH: 2})
		if d.Solver != "repair" || d.Basis != "instance" || d.Candidates != 1 {
			t.Fatalf("objective %q decision = %+v, want repair from 1 instance record", obj, d)
		}
	}
	// Family tier: the ME records alone hold the one head-to-head.
	d = Advise(h, Signature{Hash: "h-unseen", Objective: "me", Tasks: 8, MeshW: 2, MeshH: 2})
	if d.Solver != "anneal" || d.Basis != "family" {
		t.Fatalf("me family decision = %+v, want anneal", d)
	}
	// BE history has no head-to-head, so BE advice falls to the default.
	d = Advise(h, Signature{Hash: "h-unseen", Objective: "be", Tasks: 8, MeshW: 2, MeshH: 2})
	if d.Solver != DefaultSolver || d.Basis != "default" {
		t.Fatalf("be family decision = %+v, want the default", d)
	}
}
