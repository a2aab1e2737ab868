package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Beale's classic cycling example: Dantzig pricing cycles without an
// anti-cycling rule; the Bland fallback must terminate with optimum -0.05.
func TestBealeCycling(t *testing.T) {
	p := NewProblem(4)
	p.Cost = []float64{-0.75, 150, -0.02, 6}
	p.AddConstraint([]int{0, 1, 2, 3}, []float64{0.25, -60, -1.0 / 25, 9}, LE, 0)
	p.AddConstraint([]int{0, 1, 2, 3}, []float64{0.5, -90, -1.0 / 50, 3}, LE, 0)
	p.AddConstraint([]int{2}, []float64{1}, LE, 1)
	sol := solveOK(t, p)
	if math.Abs(sol.Obj-(-0.05)) > 1e-9 {
		t.Errorf("Beale optimum %g, want -0.05", sol.Obj)
	}
}

// Klee-Minty-style problem (n=6): exponential for naive pivot rules but
// must still terminate well within the iteration budget.
func TestKleeMinty(t *testing.T) {
	const n = 6
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.Cost[j] = -math.Pow(2, float64(n-1-j))
	}
	for i := 0; i < n; i++ {
		idx := []int{}
		val := []float64{}
		for j := 0; j < i; j++ {
			idx = append(idx, j)
			val = append(val, math.Pow(2, float64(i-j+1)))
		}
		idx = append(idx, i)
		val = append(val, 1)
		p.AddConstraint(idx, val, LE, math.Pow(5, float64(i+1)))
	}
	sol := solveOK(t, p)
	want := -math.Pow(5, n)
	if math.Abs(sol.Obj-want) > 1e-6*math.Abs(want) {
		t.Errorf("Klee-Minty optimum %g, want %g", sol.Obj, want)
	}
	if sol.Iters > 2000 {
		t.Errorf("Klee-Minty took %d iterations", sol.Iters)
	}
}

func TestIterationLimitStatus(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewProblem(50)
	for j := 0; j < 50; j++ {
		p.SetBounds(j, 0, 100)
		p.Cost[j] = rng.NormFloat64()
	}
	for r := 0; r < 40; r++ {
		var idx []int
		var val []float64
		for j := 0; j < 50; j++ {
			if rng.Intn(2) == 0 {
				idx = append(idx, j)
				val = append(val, rng.NormFloat64())
			}
		}
		p.AddConstraint(idx, val, LE, 10+rng.Float64()*10)
	}
	sol, err := Solve(p, Options{MaxIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit {
		t.Errorf("status %v with 3-iteration budget", sol.Status)
	}
}

// All-equality systems: the unique solution must be found (and infeasible
// overdetermined ones rejected).
func TestEqualityOnlySystems(t *testing.T) {
	p := NewProblem(2)
	p.SetBounds(0, math.Inf(-1), math.Inf(1))
	p.SetBounds(1, math.Inf(-1), math.Inf(1))
	p.AddConstraint([]int{0, 1}, []float64{1, 1}, EQ, 5)
	p.AddConstraint([]int{0, 1}, []float64{1, -1}, EQ, 1)
	sol := solveOK(t, p)
	if math.Abs(sol.X[0]-3) > 1e-8 || math.Abs(sol.X[1]-2) > 1e-8 {
		t.Errorf("x = %v, want (3, 2)", sol.X)
	}
	p.AddConstraint([]int{0}, []float64{1}, EQ, 0) // contradicts x0=3
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("overdetermined contradictory system: status %v", sol.Status)
	}
}

// Bound flips: an LP whose optimum requires walking several variables from
// lower to upper bound without basis changes.
func TestBoundFlipPath(t *testing.T) {
	const n = 10
	p := NewProblem(n)
	row := make([]float64, n)
	idx := make([]int, n)
	for j := 0; j < n; j++ {
		p.SetBounds(j, 0, 1)
		p.Cost[j] = -1 // maximize the sum
		idx[j] = j
		row[j] = 1
	}
	p.AddConstraint(idx, row, LE, float64(n)) // slack never binds
	sol := solveOK(t, p)
	if math.Abs(sol.Obj+float64(n)) > 1e-9 {
		t.Errorf("obj %g, want %d", sol.Obj, -n)
	}
}

// Negative RHS rows combined with GE senses exercise the artificial-sign
// logic in the crash basis.
func TestNegativeRHS(t *testing.T) {
	p := NewProblem(2)
	p.Cost = []float64{1, 1}
	p.AddConstraint([]int{0, 1}, []float64{-1, -1}, LE, -4) // x+y ≥ 4
	p.AddConstraint([]int{0}, []float64{-1}, GE, -3)        // x ≤ 3
	sol := solveOK(t, p)
	if math.Abs(sol.Obj-4) > 1e-8 {
		t.Errorf("obj %g, want 4", sol.Obj)
	}
}

// Larger randomized brute-force cross-check with n=4 and equality rows.
func TestRandomVsBruteForce4(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		n := 4
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			lo := float64(rng.Intn(3)) - 1
			p.SetBounds(j, lo, lo+1+float64(rng.Intn(3)))
			p.Cost[j] = float64(rng.Intn(9) - 4)
		}
		for r := 0; r < 2; r++ {
			idx := []int{}
			val := []float64{}
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					idx = append(idx, j)
					val = append(val, float64(rng.Intn(7)-3))
				}
			}
			if len(idx) == 0 {
				idx, val = []int{rng.Intn(n)}, []float64{1}
			}
			p.AddConstraint(idx, val, Op(rng.Intn(3)), float64(rng.Intn(9)-4))
		}
		want, feasible := bruteForce(p)
		sol, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !feasible {
			if sol.Status == Optimal {
				t.Fatalf("trial %d: solver optimal, brute force infeasible", trial)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v, want optimal (%g)", trial, sol.Status, want)
		}
		if math.Abs(sol.Obj-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("trial %d: obj %g, want %g", trial, sol.Obj, want)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults(100)
	if o.MaxIters <= 0 {
		t.Errorf("defaults not filled: %+v", o)
	}
	// Explicit values survive.
	o = Options{MaxIters: 7}.withDefaults(10)
	if o.MaxIters != 7 {
		t.Errorf("explicit options overridden: %+v", o)
	}
}

func TestStatusStrings(t *testing.T) {
	for st, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterLimit: "iteration-limit",
	} {
		if st.String() != want {
			t.Errorf("Status(%d).String() = %q", st, st.String())
		}
	}
	for op, want := range map[Op]string{LE: "<=", GE: ">=", EQ: "="} {
		if op.String() != want {
			t.Errorf("Op.String() = %q, want %q", op.String(), want)
		}
	}
}

// A fixed (lb == ub) variable participating in every row must not destroy
// feasibility detection.
func TestManyFixedVariables(t *testing.T) {
	p := NewProblem(5)
	for j := 0; j < 4; j++ {
		p.SetBounds(j, float64(j), float64(j)) // all fixed
	}
	p.SetBounds(4, 0, 100)
	p.Cost[4] = 1
	// x4 ≥ 10 − (0+1+2+3) = 4
	p.AddConstraint([]int{0, 1, 2, 3, 4}, []float64{1, 1, 1, 1, 1}, GE, 10)
	sol := solveOK(t, p)
	if math.Abs(sol.X[4]-4) > 1e-8 {
		t.Errorf("x4 = %g, want 4", sol.X[4])
	}
}
