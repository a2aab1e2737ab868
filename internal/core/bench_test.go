package core

import (
	"context"
	"math"
	"testing"
)

// Sinks keep the benchmarked evaluation from being optimized away.
var (
	evalSink    float64
	evalErrSink error
	searchSink  *Deployment
)

// repairedM20 is the repaired deployment of the 4×4, M = 20 instance the
// evaluation and local-search benchmarks share.
func repairedM20(tb testing.TB) (*System, *Deployment) {
	tb.Helper()
	s := mediumSystem(tb, 20, 1)
	d, _, err := HeuristicWithRepair(s, Options{}, 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return s, d
}

// BenchmarkEvaluate times one candidate evaluation as the local searches
// and the portfolio operators run it: Reschedule, CheckConstraints and
// ComputeMetrics of the repaired deployment of a 4×4, M = 20 instance.
func BenchmarkEvaluate(b *testing.B) {
	s, d := repairedM20(b)
	order := ScheduleOrder(s, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mk := Reschedule(s, d, order)
		evalErrSink = CheckConstraints(s, d)
		m, err := ComputeMetrics(s, d)
		if err != nil {
			b.Fatal(err)
		}
		evalSink = mk + m.MaxEnergy
	}
}

// BenchmarkImprove times Improve with the engine's improve operator's
// budget of four moves from the repaired 4×4, M = 20 deployment.
func BenchmarkImprove(b *testing.B) {
	s, d := repairedM20(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		searchSink, evalSink, _ = Improve(s, d, Options{}, 4)
	}
}

// BenchmarkImprovePaths times ImprovePaths from the repaired 4×4, M = 20
// deployment.
func BenchmarkImprovePaths(b *testing.B) {
	s, d := repairedM20(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		searchSink, evalSink = ImprovePaths(s, d, Options{})
	}
}

// BenchmarkAnneal times the engine's anneal operator on the 4×4, M = 20
// instance: the repaired heuristic, then 400 Metropolis iterations.
func BenchmarkAnneal(b *testing.B) {
	s := mediumSystem(b, 20, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _, err := AnnealCtx(context.Background(), s, Options{}, AnnealOptions{Iters: 400, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		searchSink = d
	}
}

// TestMoveCycleAllocatesNothing: the local searches' inner cycle — write
// a processor move or a path flip into the working deployment, score it
// through the workspace, take it back — allocates nothing once the
// workspace has its buffers, and leaves the deployment as it was.
func TestMoveCycleAllocatesNothing(t *testing.T) {
	s, d := repairedM20(t)
	want := d.Clone()
	var w workspace
	order := ScheduleOrder(s, d)
	slot := order[len(order)/2]
	was := d.Proc[slot]
	used := usedPairs(s, d, nil)
	pair := -1
	for i, u := range used {
		if u {
			pair = i
			break
		}
	}
	if pair < 0 {
		t.Fatal("no pair carries data")
	}
	n := s.Mesh.N()
	// No objective beats -Inf, so every move is scored in full and then
	// rejected.
	noGain := math.Inf(-1)
	cycle := func() {
		d.Proc[slot] = (was + 1) % n
		if _, ok := w.improves(s, d, order, Options{}, noGain); ok {
			t.Fatal("a move beat -Inf")
		}
		d.Proc[slot] = was
		if _, ok := w.flipImproves(s, d, pair/n, pair%n, order, Options{}, noGain); ok {
			t.Fatal("a flip beat -Inf")
		}
	}
	cycle() // sizes the workspace
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("apply → evaluate → undo allocates %v times per cycle, want 0", a)
	}
	sameDeployment(t, "after the cycles", d, want)
}
