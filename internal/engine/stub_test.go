package engine_test

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"nocdeploy/internal/core"
	"nocdeploy/internal/engine"
	"nocdeploy/internal/exp"
	"nocdeploy/internal/obs"
)

// stubOp is an operator for the engine's coordination tests: it returns
// the incumbent unchanged, or panics on the seeds panicOn selects, and
// calls cancel (when set) as it applies. It counts both outcomes, so a
// test can tell which applications ran.
type stubOp struct {
	name     string
	panicOn  func(seed int64) bool
	cancel   context.CancelFunc
	applied  *atomic.Int64
	panicked *atomic.Int64
}

func (o stubOp) Name() string { return o.name }

func (o stubOp) Apply(_ context.Context, st *engine.State) *core.Deployment {
	if o.panicOn != nil && o.panicOn(st.Seed) {
		o.panicked.Add(1)
		panic("stub operator panicked")
	}
	o.applied.Add(1)
	if o.cancel != nil {
		o.cancel()
	}
	return st.Incumbent
}

// recordSink keeps every event it is given.
type recordSink struct{ events []obs.Event }

func (r *recordSink) Write(e obs.Event) { r.events = append(r.events, e) }
func (r *recordSink) Close() error      { return nil }

// TestStubOperatorPanicIsNoop pins what the engine does with an operator
// that panics: the application is reported as engine.op.apply with phase
// noop, its batch-mates still run, and the solve returns a validated
// deployment — with one batch worker or several.
func TestStubOperatorPanicIsNoop(t *testing.T) {
	s, err := exp.Build(exp.InstanceParams{MeshW: 2, MeshH: 2, M: 6, L: 3, Alpha: 1.2, Seed: 1001})
	if err != nil {
		t.Fatal(err)
	}
	const rounds, batch = 6, 4
	for _, workers := range []int{1, 4} {
		var keepN, flakyN, panics atomic.Int64
		ops := []engine.SolveOperator{
			stubOp{name: "keep", applied: &keepN},
			stubOp{name: "flaky", applied: &flakyN, panicked: &panics,
				panicOn: func(seed int64) bool { return seed%2 == 0 }},
		}
		rec := &recordSink{}
		eo := engine.Options{Operators: ops, Seed: 9, Rounds: rounds, Batch: batch, Workers: workers}
		d, info, err := engine.SolveCtx(context.Background(), s, core.Options{Trace: obs.New(rec)}, eo)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if panics.Load() == 0 {
			t.Fatalf("workers=%d: no application panicked", workers)
		}
		if ran := keepN.Load() + flakyN.Load() + panics.Load(); ran != rounds*batch {
			t.Errorf("workers=%d: %d applications ran, want %d", workers, ran, rounds*batch)
		}

		applies := map[string]int{}
		noops := map[string]int{}
		for _, e := range rec.events {
			if e.Kind != obs.EngineOpApply {
				continue
			}
			applies[e.Label]++
			if e.Phase == "noop" {
				noops[e.Label]++
			}
		}
		if got, want := applies["keep"], int(keepN.Load()); got != want {
			t.Errorf("workers=%d: %d keep events, %d applications", workers, got, want)
		}
		if got, want := applies["flaky"], int(flakyN.Load()+panics.Load()); got != want {
			t.Errorf("workers=%d: %d flaky events, %d applications", workers, got, want)
		}
		if got, want := noops["flaky"], int(panics.Load()); got != want {
			t.Errorf("workers=%d: %d flaky noops, %d panics", workers, got, want)
		}
		if noops["keep"] != 0 {
			t.Errorf("workers=%d: %d keep applications reported noop", workers, noops["keep"])
		}

		if !info.Feasible {
			t.Errorf("workers=%d: solve infeasible", workers)
		}
		if _, verr := core.Validate(s, d); verr != nil {
			t.Errorf("workers=%d: returned deployment fails validation: %v", workers, verr)
		}
	}
}

// TestStubOperatorCancelStopsBatch: once the solve's context is done in
// the middle of a batch, no further application of it starts; those not
// started are reported as noop, no further round runs, and the solve
// still returns a validated deployment marked Cancelled. One worker makes
// the cut point deterministic: the first application cancels.
func TestStubOperatorCancelStopsBatch(t *testing.T) {
	s, err := exp.Build(exp.InstanceParams{MeshW: 2, MeshH: 2, M: 6, L: 3, Alpha: 1.2, Seed: 1001})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var applied atomic.Int64
	ops := []engine.SolveOperator{stubOp{name: "cancel", cancel: cancel, applied: &applied}}
	rec := &recordSink{}
	eo := engine.Options{Operators: ops, Seed: 9, Rounds: 3, Batch: 4, Workers: 1}
	d, info, err := engine.SolveCtx(ctx, s, core.Options{Trace: obs.New(rec)}, eo)
	if err != nil {
		t.Fatal(err)
	}
	if n := applied.Load(); n != 1 {
		t.Errorf("%d applications ran, want 1", n)
	}
	var phases []string
	for _, e := range rec.events {
		if e.Kind == obs.EngineOpApply {
			phases = append(phases, e.Phase)
		}
	}
	if want := []string{"feasible", "noop", "noop", "noop"}; !reflect.DeepEqual(phases, want) {
		t.Errorf("engine.op.apply phases %v, want %v", phases, want)
	}
	if !info.Cancelled || info.Iters != 4 {
		t.Errorf("Cancelled=%v Iters=%d, want true and 4", info.Cancelled, info.Iters)
	}
	if _, verr := core.Validate(s, d); verr != nil || !info.Feasible {
		t.Errorf("returned deployment: feasible=%v, validation: %v", info.Feasible, verr)
	}
}
