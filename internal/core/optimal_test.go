package core

import (
	"math"
	"testing"

	"nocdeploy/internal/reliability"
)

// bruteForceOptimal exhaustively enumerates level assignments (duplication
// forced by rule (4)), allocations, path selections and all topological
// list schedules, returning the best feasible objective. It is exact for
// the model semantics and cross-checks the MILP formulation end to end.
func bruteForceOptimal(s *System, opts Options) (float64, bool) {
	M := s.Graph.M()
	M2 := s.exp.Size()
	L := s.Plat.L()
	N := s.Mesh.N()
	best, found := math.Inf(1), false

	d := NewDeployment(s)

	// Enumerate candidate-path choices for every ordered pair.
	pairList := [][2]int{}
	for b := 0; b < N; b++ {
		for g := 0; g < N; g++ {
			if b != g {
				pairList = append(pairList, [2]int{b, g})
			}
		}
	}

	var existing []int

	// schedFeasible tries every topological permutation of the existing
	// slots with list scheduling; true if any meets the horizon.
	var schedFeasible func() bool
	schedFeasible = func() bool {
		n := len(existing)
		perm := make([]int, 0, n)
		used := make([]bool, n)
		var rec func() bool
		rec = func() bool {
			if len(perm) == n {
				if Reschedule(s, d, perm) <= s.H+1e-12 {
					return true
				}
				return false
			}
			for idx, slot := range existing {
				if used[idx] {
					continue
				}
				// All existing predecessors must already be placed.
				ok := true
				for jdx, p := range existing {
					if !used[jdx] && s.exp.Dep(p, slot) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				used[idx] = true
				perm = append(perm, slot)
				if rec() {
					used[idx] = false
					perm = perm[:len(perm)-1]
					return true
				}
				used[idx] = false
				perm = perm[:len(perm)-1]
			}
			return false
		}
		return rec()
	}

	evaluate := func() {
		if !schedFeasible() {
			return
		}
		m, err := ComputeMetrics(s, d)
		if err != nil {
			panic(err)
		}
		obj := m.MaxEnergy
		if opts.Objective == MinimizeEnergy {
			obj = m.SumEnergy
		}
		if obj < best {
			best, found = obj, true
		}
	}

	var enumPaths func(pi int)
	enumPaths = func(pi int) {
		if pi == len(pairList) {
			evaluate()
			return
		}
		b, g := pairList[pi][0], pairList[pi][1]
		limit := 2
		if opts.SinglePath {
			limit = 1
		}
		for rho := 0; rho < limit; rho++ {
			d.PathSel[b][g] = rho
			enumPaths(pi + 1)
		}
	}

	var enumAlloc func(ei int)
	enumAlloc = func(ei int) {
		if ei == len(existing) {
			enumPaths(0)
			return
		}
		for k := 0; k < N; k++ {
			d.Proc[existing[ei]] = k
			enumAlloc(ei + 1)
		}
	}

	var enumDupLevels func(di int, dups []int)
	enumDupLevels = func(di int, dups []int) {
		if di == len(dups) {
			existing = existing[:0]
			for i := 0; i < M2; i++ {
				if d.Exists[i] {
					existing = append(existing, i)
				}
			}
			enumAlloc(0)
			return
		}
		slot := dups[di]
		orig := s.exp.Orig(slot)
		ri := s.Reliability(orig, d.Level[orig])
		for l := 0; l < L; l++ {
			if s.ExecTime(slot, l) > s.exp.Deadline(slot) {
				continue // (8)
			}
			if reliability.Combined(ri, s.Reliability(slot, l)) < s.Rel.Rth {
				continue // (5)
			}
			d.Level[slot] = l
			enumDupLevels(di+1, dups)
		}
	}

	var enumOrigLevels func(i int)
	enumOrigLevels = func(i int) {
		if i == M {
			var dups []int
			for j := 0; j < M; j++ {
				dup := j + M
				d.Exists[dup] = s.Reliability(j, d.Level[j]) < s.Rel.Rth // (4)
				if d.Exists[dup] {
					dups = append(dups, dup)
				}
			}
			enumDupLevels(0, dups)
			return
		}
		for l := 0; l < L; l++ {
			if s.ExecTime(i, l) > s.exp.Deadline(i) {
				continue // (8)
			}
			d.Level[i] = l
			enumOrigLevels(i + 1)
		}
	}
	enumOrigLevels(0)
	return best, found
}

func TestOptimalMatchesBruteForceBE(t *testing.T) {
	s := tinySystem(t, 2, 3.0)
	want, feasible := bruteForceOptimal(s, Options{})
	if !feasible {
		t.Fatal("brute force found no feasible deployment; loosen the instance")
	}
	d, info, err := Optimal(s, Options{}, OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Feasible || d == nil {
		t.Fatalf("optimal reported infeasible; brute force says %g", want)
	}
	if math.Abs(info.Objective-want) > 1e-5*want {
		t.Errorf("MILP optimum %g, brute force %g", info.Objective, want)
	}
	if _, err := Validate(s, d); err != nil {
		t.Errorf("MILP deployment fails validation: %v", err)
	}
}

func TestOptimalMatchesBruteForceME(t *testing.T) {
	s := tinySystem(t, 2, 3.0)
	want, feasible := bruteForceOptimal(s, Options{Objective: MinimizeEnergy})
	if !feasible {
		t.Fatal("brute force found no feasible deployment")
	}
	_, info, err := Optimal(s, Options{Objective: MinimizeEnergy}, OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Feasible {
		t.Fatal("optimal reported infeasible")
	}
	if math.Abs(info.Objective-want) > 1e-5*want {
		t.Errorf("MILP optimum %g, brute force %g", info.Objective, want)
	}
}

func TestOptimalMatchesBruteForceSinglePath(t *testing.T) {
	s := tinySystem(t, 2, 3.0)
	want, feasible := bruteForceOptimal(s, Options{SinglePath: true})
	if !feasible {
		t.Fatal("brute force found no feasible deployment")
	}
	_, info, err := Optimal(s, Options{SinglePath: true}, OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Feasible {
		t.Fatal("optimal reported infeasible")
	}
	if math.Abs(info.Objective-want) > 1e-5*want {
		t.Errorf("MILP optimum %g, brute force %g", info.Objective, want)
	}
	// Multi-path can never be worse than single-path at the optimum.
	multi, _ := bruteForceOptimal(s, Options{})
	if multi > want+1e-12 {
		t.Errorf("multi-path optimum %g worse than single-path %g", multi, want)
	}
}

func TestOptimalTightHorizonMatchesBruteForce(t *testing.T) {
	// A horizon just above two sequential heavy tasks: schedulability binds.
	s := tinySystem(t, 2, 1.1)
	want, feasible := bruteForceOptimal(s, Options{})
	d, info, err := Optimal(s, Options{}, OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if feasible != info.Feasible {
		t.Fatalf("feasibility mismatch: brute force %v, MILP %v (bf obj %g)", feasible, info.Feasible, want)
	}
	if feasible {
		if math.Abs(info.Objective-want) > 1e-5*want {
			t.Errorf("MILP optimum %g, brute force %g", info.Objective, want)
		}
		if _, err := Validate(s, d); err != nil {
			t.Errorf("MILP deployment fails validation: %v", err)
		}
	}
}

func TestOptimalInfeasibleHorizon(t *testing.T) {
	// Horizon shorter than a single task execution: provably infeasible.
	s := tinySystem(t, 2, 0.3)
	_, info, err := Optimal(s, Options{}, OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Feasible {
		t.Error("optimal claims feasible with an impossible horizon")
	}
	want, feasible := bruteForceOptimal(s, Options{})
	if feasible {
		t.Errorf("brute force disagrees: found %g", want)
	}
}

func TestOptimalNotWorseThanHeuristic(t *testing.T) {
	s := tinySystem(t, 3, 5.0)
	hd, hinfo, err := Heuristic(s, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !hinfo.Feasible {
		t.Fatal("heuristic infeasible on loose instance")
	}
	if _, err := Validate(s, hd); err != nil {
		t.Fatalf("heuristic deployment invalid: %v", err)
	}
	_, oinfo, err := Optimal(s, Options{}, OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !oinfo.Feasible {
		t.Fatal("optimal infeasible where heuristic succeeded")
	}
	if oinfo.Objective > hinfo.Objective*(1+1e-9) {
		t.Errorf("optimal %g worse than heuristic %g", oinfo.Objective, hinfo.Objective)
	}
}

func TestOptimalWarmStartCutoff(t *testing.T) {
	s := tinySystem(t, 2, 3.0)
	_, href, err := Heuristic(s, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, ref, err := Optimal(s, Options{}, OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm := href.Objective
	_, warmInfo, err := Optimal(s, Options{}, OptimalOptions{WarmStart: &warm})
	if err != nil {
		t.Fatal(err)
	}
	if warmInfo.Feasible {
		if math.Abs(warmInfo.Objective-ref.Objective) > 1e-5*ref.Objective {
			t.Errorf("warm-started optimum %g != reference %g", warmInfo.Objective, ref.Objective)
		}
	} else if ref.Objective < warm*(1-1e-9) {
		// Cutoff pruned everything although a strictly better optimum exists.
		t.Errorf("warm start missed optimum %g below cutoff %g", ref.Objective, warm)
	}
}

// TestParallelOptimalMatchesBruteForce re-runs the brute-force fixtures
// with a parallel branch & bound: the proven optimum must be unchanged by
// worker count.
func TestParallelOptimalMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"BE", Options{}},
		{"ME", Options{Objective: MinimizeEnergy}},
		{"SinglePath", Options{SinglePath: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tinySystem(t, 2, 3.0)
			want, feasible := bruteForceOptimal(s, tc.opts)
			if !feasible {
				t.Fatal("brute force found no feasible deployment")
			}
			for _, workers := range []int{2, 4} {
				d, info, err := Optimal(s, tc.opts, OptimalOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !info.Feasible || d == nil {
					t.Fatalf("workers=%d: optimal reported infeasible; brute force says %g", workers, want)
				}
				if math.Abs(info.Objective-want) > 1e-5*want {
					t.Errorf("workers=%d: MILP optimum %g, brute force %g", workers, info.Objective, want)
				}
				if _, err := Validate(s, d); err != nil {
					t.Errorf("workers=%d: deployment fails validation: %v", workers, err)
				}
			}
		})
	}
}

// TestParallelOptimalMatchesSerialObjective checks serial and parallel
// search agree on a slightly larger instance than the brute-force
// fixtures, including the proven bound.
func TestParallelOptimalMatchesSerialObjective(t *testing.T) {
	s := tinySystem(t, 3, 4.0)
	_, serial, err := Optimal(s, Options{}, OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, par, err := Optimal(s, Options{}, OptimalOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Feasible != par.Feasible {
		t.Fatalf("feasibility differs: serial %v, parallel %v", serial.Feasible, par.Feasible)
	}
	if serial.Feasible && math.Abs(serial.Objective-par.Objective) > 1e-6*math.Max(1, serial.Objective) {
		t.Errorf("objective differs: serial %g, parallel %g", serial.Objective, par.Objective)
	}
}
