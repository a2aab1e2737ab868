package milp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// searchPin is what one solve reports about its search.
type searchPin struct {
	status       Status
	obj, bound   float64
	nodes, iters int
	incumbents   int
}

// TestSerialSearchPinned pins the one-worker search: status, objective,
// bound, node and simplex-iteration counts and the incumbent trajectory
// length of solves that branch, plunge, prove infeasibility and stop on
// each limit. The values were recorded from the serial search and must
// hold bit-for-bit at Workers 0 and 1: a change to the node order, the
// limit checks or the status logic shows up here before it moves a figure
// table.
func TestSerialSearchPinned(t *testing.T) {
	inf := math.Inf(1)
	binary := func(seed int64) *Model { return randomBinaryModel(rand.New(rand.NewSource(seed))) }
	cases := []struct {
		name  string
		model func() *Model
		opts  SolveOptions
		clock time.Duration // fake-clock step when opts.TimeLimit is set
		want  searchPin
	}{
		{"knapsack", knapsackModel, SolveOptions{}, 0,
			searchPin{Optimal, -56, -56, 9, 24, 2}},
		{"knapsack18/7", func() *Model { return randomKnapsack(18, 7) }, SolveOptions{}, 0,
			searchPin{Optimal, -749.2812510941906, -749.2812510941906, 17, 58, 1}},
		{"knapsack25/3", func() *Model { return randomKnapsack(25, 3) }, SolveOptions{}, 0,
			searchPin{Optimal, -848.941606661545, -848.941606661545, 89, 235, 1}},
		{"knapsack25/3/nodes10", func() *Model { return randomKnapsack(25, 3) }, SolveOptions{MaxNodes: 10}, 0,
			searchPin{Limit, inf, -858.5241738111583, 11, 43, 0}},
		{"knapsack25/3/gap", func() *Model { return randomKnapsack(25, 3) }, SolveOptions{RelGap: 0.002}, 0,
			searchPin{Optimal, -848.941606661545, -850.1468939980914, 83, 220, 1}},
		{"knapsack25/3/clock", func() *Model { return randomKnapsack(25, 3) }, SolveOptions{TimeLimit: time.Second}, 50 * time.Millisecond,
			searchPin{Feasible, -848.941606661545, -858.4537826084871, 33, 99, 1}},
		{"binary/1", func() *Model { return binary(1) }, SolveOptions{}, 0,
			searchPin{Optimal, -7, -7, 21, 57, 2}},
		{"binary/2", func() *Model { return binary(2) }, SolveOptions{}, 0,
			searchPin{Infeasible, inf, inf, 23, 50, 0}},
		{"binary/3", func() *Model { return binary(3) }, SolveOptions{}, 0,
			searchPin{Optimal, -1, -1, 9, 28, 1}},
		{"binary/4", func() *Model { return binary(4) }, SolveOptions{}, 0,
			searchPin{Infeasible, inf, -inf, 1, 3, 0}},
		{"binary/9", func() *Model { return binary(9) }, SolveOptions{}, 0,
			searchPin{Optimal, -15, -15, 17, 40, 1}},
		{"binary/14", func() *Model { return binary(14) }, SolveOptions{}, 0,
			searchPin{Optimal, 0, 0, 9, 23, 2}},
	}
	for _, c := range cases {
		for _, workers := range []int{0, 1} {
			opts := c.opts
			opts.Workers = workers
			if c.clock > 0 {
				opts.Clock = fakeClock(c.clock)
			}
			r, err := c.model().Solve(opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			// Exact comparison on purpose: the search is deterministic, so
			// every float must come back bit-for-bit.
			got := searchPin{r.Status, r.Obj, r.Bound, r.Nodes, r.Iters, len(r.Incumbents)}
			if got != c.want {
				t.Errorf("%s workers=%d: got %+v, want %+v", c.name, workers, got, c.want)
			}
		}
	}
}

// bruteForceBinary enumerates every 0/1 assignment of a pure-binary model
// and returns the least objective over the feasible ones, or false when
// none is feasible. It shares no code with the search.
func bruteForceBinary(m *Model) (float64, bool) {
	base := m.buildLP()
	x := make([]float64, m.NumVars())
	best, found := math.Inf(1), false
	for mask := 0; mask < 1<<len(x); mask++ {
		for i := range x {
			x[i] = float64(mask >> i & 1)
		}
		if base.Feasible(x, 1e-9) {
			if v := m.Eval(x); v < best {
				best, found = v, true
			}
		}
	}
	return best, found
}

// TestLimitStopsKeepFrontierExact stops searches at every worker count on
// a node budget, a pre-cancelled context and a fake-clock deadline, and
// checks that what they report stays true: the bound never passes the
// enumerated optimum, Optimal only comes with the optimum, Infeasible
// never comes when a solution exists, and X achieves Obj.
func TestLimitStopsKeepFrontierExact(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(29))
	checks := 0
	for trial := 0; trial < 25; trial++ {
		m := randomBinaryModel(rng)
		opt, feasible := bruteForceBinary(m)
		for _, workers := range []int{1, 2, 4} {
			stops := []SolveOptions{
				{Ctx: cancelled},
				{TimeLimit: time.Second, Clock: fakeClock(time.Duration(trial+1) * 20 * time.Millisecond)},
			}
			for _, n := range []int{1, 2, 3, 5, 8} {
				stops = append(stops, SolveOptions{MaxNodes: n})
			}
			for i, opts := range stops {
				opts.Workers = workers
				r, err := m.Solve(opts)
				if err != nil {
					t.Fatalf("trial %d workers=%d stop %d: %v", trial, workers, i, err)
				}
				where := fmt.Sprintf("trial %d workers=%d stop %d: status %v", trial, workers, i, r.Status)
				checks += 4
				if feasible && r.Bound > opt+1e-6 {
					t.Errorf("%s: bound %g passes the optimum %g", where, r.Bound, opt)
				}
				if r.Status == Optimal && (!feasible || math.Abs(r.Obj-opt) > 1e-6) {
					t.Errorf("%s: claims optimal at %g, optimum %g (feasible %v)", where, r.Obj, opt, feasible)
				}
				if feasible && r.Status == Infeasible {
					t.Errorf("%s: infeasible, but the optimum is %g", where, opt)
				}
				if r.X != nil && math.Abs(m.Eval(r.X)-r.Obj) > 1e-9 {
					t.Errorf("%s: Eval(X) = %g, Obj = %g", where, m.Eval(r.X), r.Obj)
				}
			}
		}
	}
	t.Logf("%d checks", checks)
}
