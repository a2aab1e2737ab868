package core

import (
	"testing"

	"nocdeploy/internal/noc"
	"nocdeploy/internal/platform"
	"nocdeploy/internal/reliability"
	"nocdeploy/internal/taskgen"
)

// systemAtAlpha builds a paper-scale instance with the given horizon scale.
func systemAtAlpha(t *testing.T, m int, seed int64, alpha float64) *System {
	t.Helper()
	plat := platform.Default(16)
	mesh := noc.Default(4, 4)
	g, err := taskgen.Layered(taskgen.DefaultParams(m, seed), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	rel := reliability.Default(plat.Fmin(), plat.Fmax())
	h, err := Horizon(plat, mesh, g, rel, alpha)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(plat, mesh, g, rel, h)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Repair must recover instances the plain heuristic loses to the horizon,
// and the repaired deployment must validate.
func TestRepairRecoversTightHorizons(t *testing.T) {
	recovered, attempts := 0, 0
	for seed := int64(0); seed < 8; seed++ {
		// A horizon tight enough that the energy-greedy phase 1 often
		// overshoots, but loose enough that faster levels fit.
		s := systemAtAlpha(t, 16, seed, 0.95)
		_, plain, err := Heuristic(s, Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Feasible {
			continue // nothing to repair on this seed
		}
		attempts++
		d, rep, err := HeuristicWithRepair(s, Options{}, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Feasible {
			continue
		}
		recovered++
		if _, err := Validate(s, d); err != nil {
			t.Errorf("seed %d: repaired deployment invalid: %v", seed, err)
		}
	}
	if attempts == 0 {
		t.Skip("plain heuristic feasible on all seeds; tighten alpha")
	}
	if recovered == 0 {
		t.Errorf("repair recovered 0 of %d infeasible instances", attempts)
	}
}

// When the plain heuristic is already feasible, repair must return an
// equally feasible deployment with the same objective (it returns early).
func TestRepairNoopWhenFeasible(t *testing.T) {
	s := systemAtAlpha(t, 12, 3, 2.0)
	_, plain, err := Heuristic(s, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Feasible {
		t.Skip("instance infeasible; pick another seed")
	}
	d, rep, err := HeuristicWithRepair(s, Options{}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible {
		t.Fatal("repair lost feasibility")
	}
	if rep.Objective != plain.Objective {
		t.Errorf("repair changed a feasible solution: %g vs %g", rep.Objective, plain.Objective)
	}
	if _, err := Validate(s, d); err != nil {
		t.Error(err)
	}
}

// An impossible horizon must still come back infeasible, not loop forever.
func TestRepairGivesUpOnImpossible(t *testing.T) {
	s := systemAtAlpha(t, 12, 3, 0.05)
	_, rep, err := HeuristicWithRepair(s, Options{}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible {
		t.Error("repair claims feasibility at alpha=0.05")
	}
}

// Local search must never worsen the objective and must keep feasibility.
func TestImproveMonotone(t *testing.T) {
	improvedAny := false
	for seed := int64(0); seed < 5; seed++ {
		s := systemAtAlpha(t, 14, seed, 1.5)
		d, info, err := Heuristic(s, Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Feasible {
			continue
		}
		better, obj, moves := Improve(s, d, Options{}, 0)
		if obj > info.Objective+1e-15 {
			t.Errorf("seed %d: Improve worsened objective %g → %g", seed, info.Objective, obj)
		}
		if moves > 0 {
			improvedAny = true
			if obj >= info.Objective {
				t.Errorf("seed %d: %d moves accepted but objective did not improve", seed, moves)
			}
		}
		if _, err := Validate(s, better); err != nil {
			t.Errorf("seed %d: improved deployment invalid: %v", seed, err)
		}
	}
	if !improvedAny {
		t.Log("note: local search found no improving move on any seed (heuristic already locally optimal)")
	}
}

// Improve must leave the input deployment untouched (it works on a clone).
func TestImproveDoesNotMutateInput(t *testing.T) {
	s := systemAtAlpha(t, 10, 2, 1.6)
	d, info, err := Heuristic(s, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Feasible {
		t.Skip("infeasible instance")
	}
	snapshot := d.Clone()
	Improve(s, d, Options{}, 0)
	for i := range d.Proc {
		if d.Proc[i] != snapshot.Proc[i] || d.Level[i] != snapshot.Level[i] ||
			d.Exists[i] != snapshot.Exists[i] || d.Start[i] != snapshot.Start[i] {
			t.Fatal("Improve mutated its input deployment")
		}
	}
}

// ImprovePaths never worsens the objective and never loses feasibility.
func TestImprovePathsMonotone(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		s := systemAtAlpha(t, 14, seed, 1.5)
		d, info, err := Heuristic(s, Options{SinglePath: true}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Feasible {
			continue
		}
		better, obj := ImprovePaths(s, d, Options{})
		if obj > info.Objective+1e-15 {
			t.Errorf("seed %d: ImprovePaths worsened %g → %g", seed, info.Objective, obj)
		}
		if _, err := Validate(s, better); err != nil {
			t.Errorf("seed %d: improved deployment invalid: %v", seed, err)
		}
	}
}
