package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nocdeploy/internal/core"
	"nocdeploy/internal/engine"
	"nocdeploy/internal/exp"
	"nocdeploy/internal/numeric"
)

// oracle evaluates deployments without any of internal/core's evaluation
// code. It reads only the platform's levels and power, the mesh's
// per-byte path times and per-router energies (EnergyPerByte over all N
// routers), the task graph's tasks and edges, the reliability model and
// the horizon, and it expands the duplicates itself.
type oracle struct {
	s     *core.System
	m     int
	edges []oracleEdge // every dependency among the 2M slots
}

// oracleEdge is one expanded dependency: slot a sends bytes to slot b.
type oracleEdge struct {
	a, b  int
	bytes float64
}

// oracleEval is what the oracle computes for one deployment.
type oracleEval struct {
	comp, comm []float64 // per processor
	commTime   []float64 // per slot
	maxE, sumE float64
	phi        float64
	mmax, dups int
	makespan   float64
	feasible   bool
	why        string // the first broken constraint, if any
}

func newOracle(s *core.System) *oracle {
	o := &oracle{s: s, m: len(s.Graph.Tasks)}
	for _, e := range s.Graph.Edges {
		for _, a := range [2]int{e.From, e.From + o.m} {
			for _, b := range [2]int{e.To, e.To + o.m} {
				o.edges = append(o.edges, oracleEdge{a, b, e.Bytes})
			}
		}
	}
	return o
}

// execTime is C_i/f_l of slot i at level l.
func (o *oracle) execTime(i, l int) float64 {
	return o.s.Graph.Tasks[i%o.m].WCEC / o.s.Plat.Levels[l].Freq
}

// reliability is r = exp(−λ(f)·C/f) with λ(f) = λmax·10^(d(fmax−f)/(fmax−fmin)).
func (o *oracle) reliability(i, l int) float64 {
	r, f := o.s.Rel, o.s.Plat.Levels[l].Freq
	lambda := r.LambdaMax * math.Pow(10, r.D*(r.Fmax-f)/(r.Fmax-r.Fmin))
	return math.Exp(-lambda * o.s.Graph.Tasks[i%o.m].WCEC / f)
}

func (o *oracle) evaluate(d *core.Deployment) oracleEval {
	const tol, relTol = 1e-6, 1e-12
	n := o.s.Plat.N
	ev := oracleEval{
		comp:     make([]float64, n),
		comm:     make([]float64, n),
		commTime: make([]float64, 2*o.m),
		feasible: true,
	}
	fail := func(format string, args ...any) {
		if ev.feasible {
			ev.feasible, ev.why = false, fmt.Sprintf(format, args...)
		}
	}
	end := make([]float64, 2*o.m)
	perProc := make([]int, n)
	for i := 0; i < 2*o.m; i++ {
		if !d.Exists[i] {
			continue
		}
		if i >= o.m {
			ev.dups++
		}
		t := o.execTime(i, d.Level[i])
		ev.comp[d.Proc[i]] += t * o.s.Plat.Power(d.Level[i])
		perProc[d.Proc[i]]++
		end[i] = d.Start[i] + t
		ev.makespan = math.Max(ev.makespan, end[i])
	}
	for _, e := range o.edges {
		if !d.Exists[e.a] || !d.Exists[e.b] {
			continue
		}
		beta, gamma := d.Proc[e.a], d.Proc[e.b]
		if beta == gamma {
			continue
		}
		rho := d.PathSel[beta][gamma]
		ev.commTime[e.b] += e.bytes * o.s.Mesh.TimePerByte(beta, gamma, rho)
		for k := 0; k < n; k++ {
			ev.comm[k] += e.bytes * o.s.Mesh.EnergyPerByte(beta, gamma, k, rho)
		}
	}
	minLoaded, maxLoaded := math.Inf(1), 0.0
	for k := 0; k < n; k++ {
		e := ev.comp[k] + ev.comm[k]
		ev.sumE += e
		ev.maxE = math.Max(ev.maxE, e)
		if perProc[k] > 0 {
			minLoaded, maxLoaded = math.Min(minLoaded, e), math.Max(maxLoaded, e)
		}
		ev.mmax = max(ev.mmax, perProc[k])
	}
	if minLoaded > 0 && !math.IsInf(minLoaded, 1) {
		ev.phi = maxLoaded / minLoaded
	}

	// (4)+(5): an unreliable original needs a replica, and the pair must
	// meet the threshold.
	for i := 0; i < o.m; i++ {
		r := o.reliability(i, d.Level[i])
		if d.Exists[i+o.m] {
			r = 1 - (1-r)*(1-o.reliability(i, d.Level[i+o.m]))
		}
		if r < o.s.Rel.Rth-relTol {
			fail("(4)/(5) task %d reliability %g", i, r)
		}
	}
	for i := 0; i < 2*o.m; i++ {
		if !d.Exists[i] {
			continue
		}
		if d.Start[i] < -tol {
			fail("slot %d starts at %g", i, d.Start[i])
		}
		if o.execTime(i, d.Level[i]) > o.s.Graph.Tasks[i%o.m].Deadline+tol {
			fail("(8) slot %d misses its deadline", i)
		}
		if end[i] > o.s.H+tol {
			fail("(9) slot %d ends after the horizon", i)
		}
	}
	// (6): a slot starts after each predecessor ends and all its input
	// data has arrived.
	for _, e := range o.edges {
		if d.Exists[e.a] && d.Exists[e.b] && d.Start[e.b]+tol < end[e.a]+ev.commTime[e.b] {
			fail("(6) slot %d starts before its input from %d", e.b, e.a)
		}
	}
	// (7): no two slots overlap on one processor.
	for i := 0; i < 2*o.m; i++ {
		for j := i + 1; j < 2*o.m; j++ {
			if !d.Exists[i] || !d.Exists[j] || d.Proc[i] != d.Proc[j] {
				continue
			}
			if d.Start[j]+tol < end[i] && d.Start[i]+tol < end[j] {
				fail("(7) slots %d and %d overlap", i, j)
			}
		}
	}
	return ev
}

// near reports a ≈ b within numeric.Eps relative to the larger of the
// two.
func near(a, b float64) bool {
	return math.Abs(a-b) <= numeric.Eps*math.Max(math.Abs(a), math.Abs(b))
}

// checkOracle compares the oracle with ComputeMetrics, Deployment.CommTime
// and Validate on d.
func checkOracle(t *testing.T, name string, s *core.System, o *oracle, d *core.Deployment) {
	t.Helper()
	ev := o.evaluate(d)
	m, err := core.ComputeMetrics(s, d)
	if err != nil {
		t.Fatalf("%s: ComputeMetrics: %v", name, err)
	}
	for k := range ev.comp {
		if !near(m.CompEnergy[k], ev.comp[k]) || !near(m.CommEnergy[k], ev.comm[k]) {
			t.Errorf("%s: processor %d energy comp/comm %g/%g, oracle %g/%g",
				name, k, m.CompEnergy[k], m.CommEnergy[k], ev.comp[k], ev.comm[k])
		}
	}
	for i, ct := range ev.commTime {
		if got := d.CommTime(s, i); !near(got, ct) {
			t.Errorf("%s: slot %d comm time %g, oracle %g", name, i, got, ct)
		}
	}
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"MaxEnergy", m.MaxEnergy, ev.maxE},
		{"SumEnergy", m.SumEnergy, ev.sumE},
		{"Phi", m.Phi, ev.phi},
		{"Makespan", m.Makespan, ev.makespan},
	} {
		if !near(c.got, c.want) {
			t.Errorf("%s: %s %g, oracle %g", name, c.what, c.got, c.want)
		}
	}
	if m.MMax != ev.mmax || m.Dups != ev.dups {
		t.Errorf("%s: MMax/Dups %d/%d, oracle %d/%d", name, m.MMax, m.Dups, ev.mmax, ev.dups)
	}
	if _, err := core.Validate(s, d); (err == nil) != ev.feasible {
		t.Errorf("%s: Validate says %v, oracle feasible %v (%s)", name, err, ev.feasible, ev.why)
	}
}

// TestIndependentEvaluator holds the deployments of every
// evaluation-driven solver — the heuristic and repair under both
// communication estimates, anneal, Improve and ImprovePaths from the
// repair result, and the portfolio with serve-portfolio's operators — to
// the oracle, on random 2×2 to 3×3 instances with up to 8 tasks, under
// both objectives and both path modes. Every metric must agree within
// numeric.Eps and feasibility must agree with core.Validate.
func TestIndependentEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	feasible, infeasible := 0, 0
	for inst := 0; inst < 8; inst++ {
		p := exp.InstanceParams{
			MeshW: 2 + rng.Intn(2), MeshH: 2 + rng.Intn(2),
			M: 2 + rng.Intn(7), L: 3 + rng.Intn(4),
			Alpha: 0.9 + rng.Float64(), Seed: rng.Int63(),
		}
		s, err := exp.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle(s)
		seed := rng.Int63()
		for _, opts := range []core.Options{
			{Objective: core.BalanceEnergy},
			{Objective: core.MinimizeEnergy},
			{Objective: core.BalanceEnergy, SinglePath: true},
			{Objective: core.MinimizeEnergy, SinglePath: true},
		} {
			prefix := fmt.Sprintf("%+v/%v/single=%v/", p, opts.Objective, opts.SinglePath)
			results := map[string]*core.Deployment{}
			solve := func(name string, d *core.Deployment, info *core.SolveInfo, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s%s: %v", prefix, name, err)
				}
				if info.Feasible {
					feasible++
				} else {
					infeasible++
				}
				results[name] = d
			}
			constant := opts
			constant.CommEstimate = core.EstimateConstant
			for suffix, co := range map[string]core.Options{"": opts, "-const": constant} {
				d, info, err := core.Heuristic(s, co, seed)
				solve("heuristic"+suffix, d, info, err)
				d, info, err = core.HeuristicWithRepair(s, co, seed, 0)
				solve("repair"+suffix, d, info, err)
			}
			d, info, err := core.Anneal(s, opts, core.AnnealOptions{Iters: 200, Seed: seed})
			solve("anneal", d, info, err)
			results["improve"], _, _ = core.Improve(s, results["repair"], opts, 0)
			results["paths"], _ = core.ImprovePaths(s, results["repair"], opts)
			eo := engine.Options{Seed: seed, Rounds: 2, Workers: 1}
			if eo.Operators, err = engine.BuildOperators([]string{"heuristic", "repair", "improve", "paths", "anneal"}, eo); err != nil {
				t.Fatal(err)
			}
			d, info, err = engine.SolveCtx(context.Background(), s, opts, eo)
			solve("portfolio", d, info, err)
			for name, d := range results {
				checkOracle(t, prefix+name, s, o, d)
			}
		}
	}
	// Both verdicts must occur, or the feasibility comparison is idle.
	t.Logf("%d feasible, %d infeasible solves", feasible, infeasible)
	if feasible == 0 || infeasible == 0 {
		t.Errorf("%d feasible and %d infeasible solves; the instances do not exercise both verdicts", feasible, infeasible)
	}
}
