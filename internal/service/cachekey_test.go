package service

import (
	"testing"

	"nocdeploy/internal/spec"
)

// TestCacheKeysPinned pins the exact cache-key string per solver option
// shape. The key addresses cached answers and archived history, so a
// refactor of the solve path must leave every string here unchanged.
func TestCacheKeysPinned(t *testing.T) {
	inst := spec.Instance{
		Platform: spec.Platform{Levels: []spec.VFLevel{
			{Voltage: 0.85, Freq: 0.5e9},
			{Voltage: 1.10, Freq: 1.0e9},
		}},
		Mesh:    spec.Mesh{W: 2, H: 1, Seed: 1},
		Horizon: 5,
		Graph: spec.Graph{
			Tasks: []spec.Task{{WCEC: 5e8, Deadline: 2}, {WCEC: 5e8, Deadline: 2}, {WCEC: 5e8, Deadline: 2}},
			Edges: []spec.Edge{{From: 0, To: 1, Bytes: 32 << 10}, {From: 1, To: 2, Bytes: 32 << 10}},
		},
	}
	const h = "5c131075b6d806d979c4b0eef973a223099fa9581d096eb77e4f316134b59d4b"
	const allOps = "heuristic,repair,improve,paths,anneal,region,subtree,exact"
	cases := []struct {
		name string
		req  SolveRequest
		want string
	}{
		{"heuristic", SolveRequest{Solver: SolverHeuristic}, h + "|solver=heuristic|obj=be|seed=1"},
		{"default solver", SolveRequest{}, h + "|solver=heuristic|obj=be|seed=1"},
		{"repair", SolveRequest{Solver: SolverRepair}, h + "|solver=repair|obj=be|seed=1"},
		{"anneal", SolveRequest{Solver: SolverAnneal}, h + "|solver=anneal|obj=be|seed=1"},
		{"optimal", SolveRequest{Solver: SolverOptimal}, h + "|solver=optimal|obj=be|seed=1"},
		{"portfolio default ops", SolveRequest{Solver: SolverPortfolio},
			h + "|solver=portfolio|obj=be|seed=1|ops=" + allOps + "|rounds=0|budget=0"},
		{"portfolio subset", SolveRequest{Solver: SolverPortfolio,
			EngineOps: []string{"repair", "paths"}, EngineRounds: 3, EngineBudget: 40},
			h + "|solver=portfolio|obj=be|seed=1|ops=repair,paths|rounds=3|budget=40"},
		{"obj=me", SolveRequest{Solver: SolverRepair, Objective: "me"}, h + "|solver=repair|obj=me|seed=1"},
		{"seed=7", SolveRequest{Solver: SolverAnneal, Seed: 7}, h + "|solver=anneal|obj=be|seed=7"},
	}
	for _, c := range cases {
		req := c.req
		req.Instance = inst
		if err := req.normalize(); err != nil {
			t.Fatalf("%s: normalize: %v", c.name, err)
		}
		key, _, err := req.cacheKey()
		if err != nil {
			t.Fatalf("%s: cacheKey: %v", c.name, err)
		}
		if key != c.want {
			t.Errorf("%s: cache key\n got %q\nwant %q", c.name, key, c.want)
		}
	}
}
