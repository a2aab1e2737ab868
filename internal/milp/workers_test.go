package milp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"nocdeploy/internal/lp"
)

// randomBinaryModel builds a random pure-binary MILP (the same family as
// TestRandomBinaryVsEnumeration) for cross-checking worker counts.
func randomBinaryModel(rng *rand.Rand) *Model {
	nv := 4 + rng.Intn(6) // 4..9 binaries
	rows := 2 + rng.Intn(4)
	m := NewModel()
	vars := make([]VarID, nv)
	objE := NewExpr(0)
	for i := range vars {
		vars[i] = m.AddBinary("x")
		objE.Add(vars[i], float64(rng.Intn(21)-10))
	}
	for r := 0; r < rows; r++ {
		e := NewExpr(0)
		for i := range vars {
			e.Add(vars[i], float64(rng.Intn(9)-4))
		}
		m.AddConstr(e, lp.Op(rng.Intn(3)), float64(rng.Intn(9)-3))
	}
	m.SetObjective(objE)
	return m
}

// Parallel search must prove the same optimum (and the same infeasibility
// verdicts) as the deterministic serial search.
func TestParallelSolveMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		m := randomBinaryModel(rng)
		serial, err := m.Solve(SolveOptions{})
		if err != nil {
			t.Fatalf("trial %d serial: %v", trial, err)
		}
		for _, workers := range []int{2, 4, 8} {
			par, err := m.Solve(SolveOptions{Workers: workers})
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if par.Status != serial.Status {
				t.Fatalf("trial %d workers=%d: status %v, serial %v", trial, workers, par.Status, serial.Status)
			}
			if serial.Status == Optimal {
				if math.Abs(par.Obj-serial.Obj) > 1e-6 {
					t.Fatalf("trial %d workers=%d: obj %g, serial %g", trial, workers, par.Obj, serial.Obj)
				}
				if math.Abs(par.Bound-serial.Bound) > 1e-6 {
					t.Fatalf("trial %d workers=%d: bound %g, serial %g", trial, workers, par.Bound, serial.Bound)
				}
				// The returned vector must actually achieve the objective.
				if got := m.Eval(par.X); math.Abs(got-par.Obj) > 1e-6 {
					t.Fatalf("trial %d workers=%d: Eval(X) = %g, Obj = %g", trial, workers, got, par.Obj)
				}
			}
		}
	}
}

// Negative Workers means all cores; 0 and 1 are one worker.
func TestWorkersConvention(t *testing.T) {
	if got := normalizeWorkers(-1); got < 1 {
		t.Errorf("normalizeWorkers(-1) = %d", got)
	}
	m := randomBinaryModel(rand.New(rand.NewSource(3)))
	for _, w := range []int{0, 1, -1} {
		if _, err := m.Solve(SolveOptions{Workers: w}); err != nil {
			t.Errorf("Workers=%d: %v", w, err)
		}
	}
}

// An incumbent seed must survive the parallel search: the result can only
// be as good or better.
func TestParallelIncumbentSeed(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x")
	y := m.AddBinary("y")
	e := NewExpr(0).Add(x, 1).Add(y, 1)
	m.AddConstr(e, lp.GE, 1)
	m.SetObjective(NewExpr(0).Add(x, 2).Add(y, 3))
	inc := []float64{0, 1} // feasible, objective 3; optimum is x=1 → 2
	r, err := m.Solve(SolveOptions{Workers: 4, Incumbent: inc})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || math.Abs(r.Obj-2) > 1e-9 {
		t.Errorf("status %v obj %g, want optimal 2", r.Status, r.Obj)
	}
}

// The cutoff must prune the parallel search exactly as it does the serial
// one: with a cutoff below the optimum, no incumbent survives.
func TestParallelCutoff(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x")
	m.AddConstr(NewExpr(0).Add(x, 1), lp.GE, 1)
	m.SetObjective(NewExpr(0).Add(x, 5)) // optimum 5
	r, err := m.Solve(SolveOptions{Workers: 4, Cutoff: 4, CutoffSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Limit || r.X != nil {
		t.Errorf("status %v X %v, want limit with no incumbent", r.Status, r.X)
	}
}

// Parallel infeasible and time-limited searches must terminate cleanly.
func TestParallelInfeasibleAndLimits(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x")
	m.AddConstr(NewExpr(0).Add(x, 1), lp.GE, 2) // impossible for a binary
	m.SetObjective(NewExpr(0).Add(x, 1))
	r, err := m.Solve(SolveOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Infeasible {
		t.Errorf("status %v, want infeasible", r.Status)
	}

	// A one-node budget on a nontrivial model must stop with Limit (or an
	// incumbent-bearing status), never hang.
	m2 := randomBinaryModel(rand.New(rand.NewSource(21)))
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := m2.Solve(SolveOptions{Workers: 4, MaxNodes: 1}); err != nil {
			t.Errorf("MaxNodes=1: %v", err)
		}
		if _, err := m2.Solve(SolveOptions{Workers: 4, TimeLimit: time.Nanosecond}); err != nil {
			t.Errorf("TimeLimit=1ns: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("parallel solve with tiny limits did not terminate")
	}
}
