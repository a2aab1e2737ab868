package engine_test

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"testing"
	"time"

	"nocdeploy/internal/core"
	"nocdeploy/internal/engine"
	"nocdeploy/internal/exp"
	"nocdeploy/internal/numeric"
	"nocdeploy/internal/obs"
)

// figInstance is one panel entry of the acceptance criterion: a system
// plus the engine options sized to it.
type figInstance struct {
	sys *core.System
	eo  engine.Options
}

// figSuite is the instance panel of the acceptance criterion: the exact-
// sweep scale (2×2, L=3) across sizes plus one heuristic-scale instance
// (4×4, L=6). The small instances run the full portfolio with a tight
// exact budget; the 4×4 instance — where each exact node costs a large LP
// — runs the cheap operator subset so the suite stays in the unit-test
// envelope.
func figSuite(t *testing.T) []figInstance {
	t.Helper()
	build := func(p exp.InstanceParams) *core.System {
		s, err := exp.Build(p)
		if err != nil {
			t.Fatalf("Build(%+v): %v", p, err)
		}
		return s
	}
	cheap := engine.Options{Seed: 5, Rounds: 3, Workers: 2, NodeBudget: -1}
	var err error
	if cheap.Operators, err = engine.BuildOperators(
		[]string{"heuristic", "repair", "improve", "paths", "region", "subtree"}, cheap); err != nil {
		t.Fatal(err)
	}
	return []figInstance{
		{build(exp.InstanceParams{MeshW: 2, MeshH: 2, M: 6, L: 3, Alpha: 1.2, Seed: 1001}), quickOpts(5, 2)},
		{build(exp.InstanceParams{MeshW: 2, MeshH: 2, M: 8, L: 3, Alpha: 1.2, Seed: 1002}), quickOpts(5, 2)},
		{build(exp.InstanceParams{MeshW: 2, MeshH: 2, M: 10, L: 3, Alpha: 1.3, Seed: 1003}), quickOpts(5, 2)},
		{build(exp.InstanceParams{MeshW: 4, MeshH: 4, M: 12, L: 6, Alpha: 1.3, Seed: 1004}), cheap},
	}
}

// quickOpts keeps engine tests inside the unit-test envelope: few rounds,
// tight exact budgets.
func quickOpts(seed int64, workers int) engine.Options {
	return engine.Options{Seed: seed, Rounds: 3, Workers: workers, NodeBudget: 6, AnnealIters: 120}
}

// TestPortfolioNeverWorseThanRepair is the acceptance criterion's first
// half: on every fig-suite instance the portfolio incumbent's energy is
// ≤ the standalone heuristic+repair result.
func TestPortfolioNeverWorseThanRepair(t *testing.T) {
	for i, fi := range figSuite(t) {
		s := fi.sys
		rd, rinfo, err := core.HeuristicWithRepair(s, core.Options{}, fi.eo.Seed, 0)
		if err != nil {
			t.Fatalf("instance %d: repair: %v", i, err)
		}
		pd, pinfo, err := engine.SolveCtx(context.Background(), s, core.Options{}, fi.eo)
		if err != nil {
			t.Fatalf("instance %d: portfolio: %v", i, err)
		}
		if pd == nil {
			t.Fatalf("instance %d: portfolio returned nil deployment", i)
		}
		if rinfo.Feasible && !pinfo.Feasible {
			t.Fatalf("instance %d: repair feasible but portfolio infeasible", i)
		}
		if numeric.GtTol(pinfo.Objective, rinfo.Objective, 1e-12) {
			t.Errorf("instance %d: portfolio %g worse than repair %g",
				i, pinfo.Objective, rinfo.Objective)
		}
		if m, verr := core.Validate(s, pd); verr != nil || m == nil {
			t.Errorf("instance %d: portfolio incumbent fails validation: %v", i, verr)
		}
		_ = rd
	}
}

// TestPortfolioCancelledReturnsValidated is the acceptance criterion's
// second half: a cancelled or deadline-expired portfolio solve always
// returns a validated feasible deployment — never an error.
func TestPortfolioCancelledReturnsValidated(t *testing.T) {
	s, err := exp.Build(exp.InstanceParams{MeshW: 2, MeshH: 2, M: 8, L: 3, Alpha: 1.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		d, info, err := engine.SolveCtx(ctx, s, core.Options{}, quickOpts(7, 4))
		if err != nil {
			t.Fatalf("cancelled solve errored: %v", err)
		}
		if d == nil {
			t.Fatal("cancelled solve returned nil deployment")
		}
		if !info.Cancelled {
			t.Error("info.Cancelled not set")
		}
		if !info.Feasible {
			t.Error("cancelled solve returned infeasible deployment")
		}
		if _, verr := core.Validate(s, d); verr != nil {
			t.Errorf("cancelled incumbent fails validation: %v", verr)
		}
	})

	t.Run("expired-deadline", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		d, info, err := engine.SolveCtx(ctx, s, core.Options{}, quickOpts(7, 4))
		if err != nil {
			t.Fatalf("deadline-expired solve errored: %v", err)
		}
		if d == nil || !info.Feasible {
			t.Fatalf("deadline-expired solve must return a feasible deployment (d=%v feasible=%v)",
				d != nil, info.Feasible)
		}
		if _, verr := core.Validate(s, d); verr != nil {
			t.Errorf("incumbent fails validation: %v", verr)
		}
	})
}

// runTraced runs one portfolio solve under a fixed fake clock, capturing
// the JSONL event stream.
func runTraced(t *testing.T, s *core.System, seed int64, workers int) ([]byte, *core.Deployment, *core.SolveInfo) {
	t.Helper()
	var buf bytes.Buffer
	epoch := time.Unix(1700000000, 0)
	tr := obs.NewWithClock(func() time.Time { return epoch }, obs.NewJSONLSink(&buf))
	copts := core.Options{Trace: tr, Clock: func() time.Time { return epoch }}
	d, info, err := engine.SolveCtx(context.Background(), s, copts, quickOpts(seed, workers))
	if err != nil {
		t.Fatalf("portfolio solve (workers=%d): %v", workers, err)
	}
	if cerr := tr.Close(); cerr != nil {
		t.Fatalf("trace close: %v", cerr)
	}
	return buf.Bytes(), d, info
}

// TestPortfolioDeterministicAcrossWorkers is the engine's determinism
// contract: fixed seed + fixed fake clock → byte-identical operator
// schedule (the full JSONL trace) and identical final incumbent at
// Workers=1 vs Workers=8.
func TestPortfolioDeterministicAcrossWorkers(t *testing.T) {
	s, err := exp.Build(exp.InstanceParams{MeshW: 2, MeshH: 2, M: 6, L: 3, Alpha: 1.2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	trace1, d1, info1 := runTraced(t, s, 3, 1)
	trace8, d8, info8 := runTraced(t, s, 3, 8)
	if !bytes.Equal(trace1, trace8) {
		t.Errorf("operator schedule differs between Workers=1 and Workers=8:\n--- w=1 ---\n%s\n--- w=8 ---\n%s",
			trace1, trace8)
	}
	if !reflect.DeepEqual(d1, d8) {
		t.Error("final incumbent deployments differ between Workers=1 and Workers=8")
	}
	if info1.Objective != info8.Objective { //lint:allow floateq — identical deterministic runs must agree exactly
		t.Errorf("objectives differ: %g vs %g", info1.Objective, info8.Objective)
	}
	// Per-operator stats are part of the contract too, bar the measured
	// seconds, and they count every application exactly once.
	if c1, c8 := opCounts(info1), opCounts(info8); !reflect.DeepEqual(c1, c8) {
		t.Errorf("operator stats differ between Workers=1 and Workers=8:\n%+v\n%+v", c1, c8)
	}
	applies := 0
	for _, op := range info1.Operators {
		applies += op.Applies
	}
	if len(info1.Operators) == 0 || applies != info1.Iters {
		t.Errorf("operator applies sum to %d, want SolveInfo.Iters = %d (%+v)", applies, info1.Iters, info1.Operators)
	}
	if len(trace1) == 0 {
		t.Fatal("empty trace: engine emitted no events")
	}
	for _, want := range []string{`"kind":"engine.iter"`, `"kind":"engine.op.apply"`, `"kind":"engine.weights"`} {
		if !bytes.Contains(trace1, []byte(want)) {
			t.Errorf("trace missing %s events", want)
		}
	}
}

// opCounts is info's per-operator stats without the measured seconds.
func opCounts(info *core.SolveInfo) []core.OperatorStat {
	out := slices.Clone(info.Operators)
	for i := range out {
		out[i].Seconds = 0
	}
	return out
}

// TestBuildOperators covers the portfolio vocabulary: the full set by
// default, selection by name, and rejection of unknown names.
func TestBuildOperators(t *testing.T) {
	ops, err := engine.BuildOperators(nil, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != len(engine.OperatorNames()) {
		t.Fatalf("default portfolio has %d operators, want %d", len(ops), len(engine.OperatorNames()))
	}
	for i, name := range engine.OperatorNames() {
		if ops[i].Name() != name {
			t.Errorf("operator %d is %q, want %q", i, ops[i].Name(), name)
		}
	}
	if _, err := engine.BuildOperators([]string{"repair", "warp"}, engine.Options{}); err == nil {
		t.Error("unknown operator name accepted")
	}
	if err := engine.ValidOperators([]string{"region", "subtree"}); err != nil {
		t.Errorf("ValidOperators rejected built-ins: %v", err)
	}
}
