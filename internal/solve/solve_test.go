package solve_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"nocdeploy/internal/core"
	"nocdeploy/internal/exp"
	"nocdeploy/internal/obs"
	"nocdeploy/internal/solve"
)

// contractOptions keeps every solver to well under a second per tiny
// instance: optimal gets a node budget, portfolio two rounds of the cheap
// operators.
func contractOptions(name string) solve.Options {
	o := solve.Options{Seed: 1}
	switch name {
	case solve.Optimal:
		o.MaxNodes = 50
	case solve.Portfolio:
		o.Rounds = 2
		o.Ops = []string{"heuristic", "repair", "improve", "paths", "anneal"}
	}
	return o
}

// contractSystems are three tiny instances; at the tight horizon
// (alpha 0.8) the plain heuristic comes back infeasible, so both sides of
// the Feasible check are exercised.
func contractSystems(t *testing.T) []*core.System {
	t.Helper()
	var out []*core.System
	for i, alpha := range []float64{0.8, 1.0, 1.5} {
		sys, err := exp.Build(exp.InstanceParams{MeshW: 2, MeshH: 2, M: 3, L: 3, Alpha: alpha, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sys)
	}
	return out
}

// TestSolverContract runs every solver Run accepts through the contract
// each caller relies on: SolveInfo.Feasible agrees with the validator, and
// a context cancelled in advance stops the solve at once.
func TestSolverContract(t *testing.T) {
	systems := contractSystems(t)
	for _, name := range solve.Names() {
		t.Run(name, func(t *testing.T) {
			o := contractOptions(name)
			for i, sys := range systems {
				d, info, err := solve.Run(context.Background(), sys, name, o)
				if err != nil {
					t.Fatalf("instance %d: %v", i, err)
				}
				valid := d != nil
				if valid {
					_, verr := core.Validate(sys, d)
					valid = verr == nil
				}
				t.Logf("instance %d: feasible=%v objective=%.6g", i, info.Feasible, info.Objective)
				if info.Feasible != valid {
					t.Errorf("instance %d: Feasible=%v but validator says %v", i, info.Feasible, valid)
				}
			}

			// Cancelled in advance. Heuristic, repair and anneal then
			// return a partial deployment that need not validate, so only
			// the stop itself is checked here.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			start := time.Now()
			_, info, err := solve.Run(ctx, systems[0], name, o)
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("cancelled solve took %v", elapsed)
			}
			if !errors.Is(err, context.Canceled) && (err != nil || !info.Cancelled) {
				t.Errorf("cancelled solve: err=%v, info=%+v; want a context error or Cancelled", err, info)
			}
		})
	}
}

func TestValidate(t *testing.T) {
	err := solve.Options{}.Validate("bogus")
	if err == nil {
		t.Fatal("unknown solver accepted")
	}
	for _, name := range solve.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list solver %q", err, name)
		}
	}
	for _, name := range solve.Names() {
		if err := contractOptions(name).Validate(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, c := range []struct {
		solver string
		o      solve.Options
	}{
		{solve.Repair, solve.Options{Ops: []string{"repair"}}},
		{solve.Optimal, solve.Options{Rounds: 2}},
		{solve.Anneal, solve.Options{Budget: 5}},
		{solve.Portfolio, solve.Options{Ops: []string{"x"}}},
		{solve.Portfolio, solve.Options{Rounds: -1}},
		{solve.Portfolio, solve.Options{Budget: -1}},
	} {
		if c.o.Validate(c.solver) == nil {
			t.Errorf("%s with %+v accepted", c.solver, c.o)
		}
	}
}

// spanSink counts solve spans by label: +1 on solve.start, -1 on
// solve.done.
type spanSink struct{ open map[string]int }

func (s *spanSink) Write(e obs.Event) {
	switch e.Kind {
	case obs.SolveStart:
		s.open[e.Label]++
	case obs.SolveDone:
		s.open[e.Label]--
	}
}

func (s *spanSink) Close() error { return nil }

// TestCancelledSolveClosesSpans runs every solver under a context
// cancelled in advance and checks that each solve.start it emits gets its
// solve.done, so a Chrome trace of a cancelled solve has no unterminated
// slice.
func TestCancelledSolveClosesSpans(t *testing.T) {
	sys, err := exp.Build(exp.InstanceParams{MeshW: 2, MeshH: 2, M: 4, L: 3, Alpha: 1.0, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range solve.Names() {
		sink := &spanSink{open: map[string]int{}}
		o := contractOptions(name)
		o.Core.Trace = obs.New(sink)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := solve.Run(ctx, sys, name, o); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: %v", name, err)
		}
		if len(sink.open) == 0 {
			t.Errorf("%s: no solve span emitted", name)
		}
		for label, n := range sink.open {
			if n != 0 {
				t.Errorf("%s: %d %q span(s) left open", name, n, label)
			}
		}
	}
}
