package nocdeploy_test

import (
	"testing"
	"time"

	"nocdeploy"
	"nocdeploy/internal/core"
	"nocdeploy/internal/exp"
	"nocdeploy/internal/lp"
	"nocdeploy/internal/milp"
	"nocdeploy/internal/nocsim"
	"nocdeploy/internal/sim"
)

// Component benchmarks. The paper's figure suite is timed end to end by
// perfbench's figures workload (BENCHMARK.json), not here.

func paperScaleSystem(b *testing.B, m int) *nocdeploy.System {
	b.Helper()
	plat := nocdeploy.DefaultPlatform(16)
	mesh := nocdeploy.DefaultMesh(4, 4)
	g, err := nocdeploy.LayeredGraph(nocdeploy.DefaultGenParams(m, 1), 4, 3)
	if err != nil {
		b.Fatal(err)
	}
	rel := nocdeploy.DefaultReliability(plat.Fmin(), plat.Fmax())
	h, err := nocdeploy.Horizon(plat, mesh, g, rel, 1.3)
	if err != nil {
		b.Fatal(err)
	}
	s, err := nocdeploy.NewSystem(plat, mesh, g, rel, h)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkHeuristicM20 is the paper-scale heuristic solve (N=16, M=20,
// L=6) whose "negligible computation time" Fig. 2(f) reports.
func BenchmarkHeuristicM20(b *testing.B) {
	s := paperScaleSystem(b, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := nocdeploy.Heuristic(s, nocdeploy.Options{}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeuristicM60(b *testing.B) {
	s := paperScaleSystem(b, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := nocdeploy.Heuristic(s, nocdeploy.Options{}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalM3 times the exact branch & bound on the reduced-scale
// instance class used by the figure sweeps.
func BenchmarkOptimalM3(b *testing.B) {
	s, err := exp.Build(exp.InstanceParams{MeshW: 2, MeshH: 2, M: 3, L: 3, Alpha: 1.2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hd, hinfo, err := core.Heuristic(s, core.Options{}, 1)
		if err != nil {
			b.Fatal(err)
		}
		oo := core.OptimalOptions{TimeLimit: 30 * time.Second, RelGap: 0.02}
		if hinfo.Feasible {
			oo.WarmDeployment = hd
		}
		if _, _, err := core.Optimal(s, core.Options{}, oo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimal4x4 runs the node-budgeted exact sweep at the paper's
// full 4×4 scale (internal/exp "ext-opt4x4"). The figures workload runs
// its exact solves on 2×2 meshes only, so this is the one benchmark of
// node LPs at the 4×4, L = 6 size.
func BenchmarkOptimal4x4(b *testing.B) {
	// Node LPs at this scale run seconds each; a handful of nodes per
	// instance keeps the three Quick reps near twenty seconds total.
	cfg := exp.Config{Seed: 1, Quick: true, TimeLimit: 5 * time.Second, MaxNodes: 4}
	for i := 0; i < b.N; i++ {
		tbl, err := exp.RunOptimal4x4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkMILPRootRelaxation times one LP solve of the full P1 model —
// the unit of work branch & bound repeats per node.
func BenchmarkMILPRootRelaxation(b *testing.B) {
	s, err := exp.Build(exp.InstanceParams{MeshW: 2, MeshH: 2, M: 4, L: 3, Alpha: 1.2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	f := core.BuildFormulation(s, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := f.Model.Solve(milp.SolveOptions{MaxNodes: 1})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkLPSimplexMedium(b *testing.B) {
	// A dense-ish random feasible LP with 120 columns and 80 rows.
	p := lp.NewProblem(120)
	for j := 0; j < 120; j++ {
		p.SetBounds(j, 0, 10)
		p.Cost[j] = float64((j*7)%13) - 6
	}
	for r := 0; r < 80; r++ {
		var idx []int
		var val []float64
		for j := r % 4; j < 120; j += 4 {
			idx = append(idx, j)
			val = append(val, float64((r+j)%9)-4)
		}
		p.AddConstraint(idx, val, lp.LE, float64(50+r))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.Solve(p, lp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNoCSim1000Packets(b *testing.B) {
	mesh := nocdeploy.DefaultMesh(8, 8)
	var pkts []nocsim.Packet
	for i := 0; i < 1000; i++ {
		src := (i * 17) % 64
		dst := (i*31 + 5) % 64
		if src == dst {
			dst = (dst + 1) % 64
		}
		pkts = append(pkts, nocsim.Packet{
			ID:     i,
			Bytes:  4096,
			Route:  mesh.PathOf(src, dst, i%2).Nodes,
			Inject: float64(i) * 50e-9,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nocsim.Simulate(mesh, pkts, nocsim.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFaultInjection(b *testing.B) {
	s := paperScaleSystem(b, 20)
	d, info, err := nocdeploy.Heuristic(s, nocdeploy.Options{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	if !info.Feasible {
		b.Skip("instance infeasible")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.InjectFaults(s, d, 10000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeshConstruction8x8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = nocdeploy.DefaultMesh(8, 8)
	}
}

func BenchmarkExecuteReplay(b *testing.B) {
	s := paperScaleSystem(b, 20)
	d, _, err := nocdeploy.Heuristic(s, nocdeploy.Options{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Execute(s, d); err != nil {
			b.Fatal(err)
		}
	}
}
