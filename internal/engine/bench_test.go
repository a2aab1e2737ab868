package engine_test

import (
	"context"
	"testing"

	"nocdeploy/internal/core"
	"nocdeploy/internal/engine"
	"nocdeploy/internal/exp"
)

// portfolioSink keeps the benchmarked solve from being optimized away.
var portfolioSink float64

// BenchmarkPortfolio times one portfolio solve as the serve-portfolio
// workload asks for it: a 4×4, M = 20 instance, the five operators
// heuristic, repair, improve, paths and anneal, two rounds, one worker.
func BenchmarkPortfolio(b *testing.B) {
	s, err := exp.Build(exp.InstanceParams{MeshW: 4, MeshH: 4, M: 20, L: 6, Alpha: 1.3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	eo := engine.Options{Seed: 1, Rounds: 2, Workers: 1}
	if eo.Operators, err = engine.BuildOperators([]string{"heuristic", "repair", "improve", "paths", "anneal"}, eo); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, info, err := engine.SolveCtx(context.Background(), s, core.Options{}, eo)
		if err != nil {
			b.Fatal(err)
		}
		portfolioSink = info.Objective
	}
}
