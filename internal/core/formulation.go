package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"nocdeploy/internal/lp"
	"nocdeploy/internal/milp"
	"nocdeploy/internal/noc"
	"nocdeploy/internal/obs"
	"nocdeploy/internal/reliability"
)

// Formulation is the MILP encoding of problem P1 plus the variable handles
// needed to extract a Deployment from a solution vector.
type Formulation struct {
	Model *milp.Model
	sys   *System
	opts  Options

	x  [][]milp.VarID // x[i][k]
	y  [][]milp.VarID // y[i][l]
	h  []milp.VarID   // h[i]; originals fixed to 1
	c  [][][]milp.VarID
	ts []milp.VarID
	u  map[[2]int]milp.VarID // ordering variables for independent pairs
}

// Product-variable down-pressure: a tiny objective weight that pins the
// lower-bounded linearization variables to their true product value in any
// optimal LP solution (see DESIGN.md). It is sized relative to the energy
// scale during model construction.
const epsRel = 1e-9

// BuildFormulation lowers a system to the MILP of problem P1 (or the ME /
// single-path variants selected by opts).
func BuildFormulation(s *System, opts Options) *Formulation {
	m := milp.NewModel()
	f := &Formulation{Model: m, sys: s, opts: opts, u: map[[2]int]milp.VarID{}}
	M := s.Graph.M()
	M2 := s.exp.Size()
	N := s.Mesh.N()
	L := s.Plat.L()
	H := s.H

	// --- decision variables -------------------------------------------
	f.x = make([][]milp.VarID, M2)
	f.y = make([][]milp.VarID, M2)
	f.h = make([]milp.VarID, M2)
	f.ts = make([]milp.VarID, M2)
	for i := 0; i < M2; i++ {
		f.x[i] = make([]milp.VarID, N)
		for k := 0; k < N; k++ {
			f.x[i][k] = m.AddBinary(fmt.Sprintf("x[%d][%d]", i, k))
			m.SetBranchPriority(f.x[i][k], 30)
		}
		f.y[i] = make([]milp.VarID, L)
		for l := 0; l < L; l++ {
			f.y[i][l] = m.AddBinary(fmt.Sprintf("y[%d][%d]", i, l))
			m.SetBranchPriority(f.y[i][l], 40)
		}
		f.h[i] = m.AddBinary(fmt.Sprintf("h[%d]", i))
		if i < M {
			m.FixVar(f.h[i], 1) // originals always exist
		} else {
			m.SetBranchPriority(f.h[i], 50)
		}
		f.ts[i] = m.AddContinuous(fmt.Sprintf("ts[%d]", i), 0, H)
	}
	f.c = make([][][]milp.VarID, N)
	for b := 0; b < N; b++ {
		f.c[b] = make([][]milp.VarID, N)
		for g := 0; g < N; g++ {
			if b == g {
				continue
			}
			f.c[b][g] = make([]milp.VarID, noc.NumPaths)
			for rho := 0; rho < noc.NumPaths; rho++ {
				f.c[b][g][rho] = m.AddBinary(fmt.Sprintf("c[%d][%d][%d]", b, g, rho))
				m.SetBranchPriority(f.c[b][g][rho], 20)
			}
			if opts.SinglePath {
				m.FixVar(f.c[b][g][noc.PathEnergy], 1)
				for rho := 1; rho < noc.NumPaths; rho++ {
					m.FixVar(f.c[b][g][rho], 0)
				}
			}
		}
	}

	// --- assignment constraints (1), (2), (3) --------------------------
	for i := 0; i < M2; i++ {
		rowX := milp.NewExpr(0)
		for k := 0; k < N; k++ {
			rowX.Add(f.x[i][k], 1)
		}
		m.AddConstr(rowX, lp.EQ, 1) // (1)
		rowY := milp.NewExpr(0)
		for l := 0; l < L; l++ {
			rowY.Add(f.y[i][l], 1)
		}
		m.AddConstr(rowY, lp.EQ, 1) // (3)
	}
	for b := 0; b < N; b++ {
		for g := 0; g < N; g++ {
			if b == g {
				continue
			}
			row := milp.NewExpr(0)
			for rho := 0; rho < noc.NumPaths; rho++ {
				row.Add(f.c[b][g][rho], 1)
			}
			m.AddConstr(row, lp.EQ, 1) // (2)
		}
	}

	// --- z[i][l] = h_i·y_il (exact for copies; y itself for originals) --
	z := make([][]milp.VarID, M2)
	for i := 0; i < M2; i++ {
		if i < M {
			z[i] = f.y[i]
			continue
		}
		z[i] = make([]milp.VarID, L)
		for l := 0; l < L; l++ {
			z[i][l] = m.Product(fmt.Sprintf("z[%d][%d]", i, l), f.h[i], f.y[i][l])
		}
	}
	// tcomp(i) = Σ_l z_il·C_i/f_l, exact at integral points.
	tcomp := func(i int) *milp.Expr {
		e := milp.NewExpr(0)
		for l := 0; l < L; l++ {
			e.Add(z[i][l], s.ExecTime(i, l))
		}
		return e
	}

	// --- reliability: duplication rule (4) and threshold (5) -----------
	var sigmaVals []float64
	for i := 0; i < M; i++ {
		for l := 0; l < L; l++ {
			sigmaVals = append(sigmaVals, s.Reliability(i, l))
		}
	}
	sigma := reliability.Sigma(s.Rel.Rth, sigmaVals)
	for i := 0; i < M; i++ {
		ri := milp.NewExpr(0)
		rmax := 0.0
		for l := 0; l < L; l++ {
			ri.Add(f.y[i][l], s.Reliability(i, l))
			rmax = math.Max(rmax, s.Reliability(i, l))
		}
		// (4): r_i ≥ Rth ⇒ h_{i+M} = 0; r_i < Rth ⇒ h_{i+M} = 1.
		m.Indicator(f.h[i+M], ri, rmax, s.Rel.Rth, sigma)
		// (5): r_i + Σ_l r_il z_{i+M,l} − Σ_{l,l'} r_il r_il' y_il z_{i+M,l'} ≥ Rth.
		row := milp.NewExpr(0).AddExpr(ri, 1)
		for l := 0; l < L; l++ {
			row.Add(z[i+M][l], s.Reliability(i, l))
		}
		for l := 0; l < L; l++ {
			for lp2 := 0; lp2 < L; lp2++ {
				yz := m.AddContinuous(fmt.Sprintf("yz[%d][%d][%d]", i, l, lp2), 0, 1)
				// Lower-bound-only product: conservative for (5), where yz
				// appears with a negative sign (see DESIGN.md).
				lb := milp.NewExpr(0).Add(f.y[i][l], 1).Add(z[i+M][lp2], 1).Add(yz, -1)
				m.AddConstr(lb, lp.LE, 1)
				row.Add(yz, -s.Reliability(i, l)*s.Reliability(i, lp2))
			}
		}
		m.AddConstr(row, lp.GE, s.Rel.Rth)
	}

	// --- communication products q = x_aβ·x_bγ·h_a·h_b·c_βγρ ------------
	// Lower-bound-only linearization: q ≥ Σ factors − (count−1). The tiny
	// objective pressure below pins q to the true product at optimality.
	edges := s.exp.DepEdges()
	// commEnergy[k] and commTime[slot] accumulate the q-linear terms.
	energyExpr := make([]*milp.Expr, N)
	for k := range energyExpr {
		energyExpr[k] = milp.NewExpr(0)
	}
	commTime := make([]*milp.Expr, M2)
	pressure := milp.NewExpr(0)
	for ei, pair := range edges {
		a, b := pair[0], pair[1]
		bytes := s.exp.Data(a, b)
		for beta := 0; beta < N; beta++ {
			for gamma := 0; gamma < N; gamma++ {
				if beta == gamma {
					continue // co-located communication is free
				}
				for rho := 0; rho < noc.NumPaths; rho++ {
					q := m.AddContinuous(
						fmt.Sprintf("q[e%d][%d][%d][%d]", ei, beta, gamma, rho), 0, 1)
					lb := milp.NewExpr(0).
						Add(f.x[a][beta], 1).
						Add(f.x[b][gamma], 1).
						Add(f.c[beta][gamma][rho], 1).
						Add(q, -1)
					count := 3
					for _, t := range []int{a, b} {
						if t >= M {
							lb.Add(f.h[t], 1)
							count++
						}
					}
					m.AddConstr(lb, lp.LE, float64(count-1))
					pressure.Add(q, 1)
					tt := bytes * s.Mesh.TimePerByte(beta, gamma, rho)
					if commTime[b] == nil {
						commTime[b] = milp.NewExpr(0)
					}
					commTime[b].Add(q, tt)
					for k := 0; k < N; k++ {
						if e := s.Mesh.EnergyPerByte(beta, gamma, k, rho); e > 0 {
							energyExpr[k].Add(q, bytes*e)
						}
					}
				}
			}
		}
	}

	// --- computation energy: e_ik ≥ Σ_l E_il z_il − (1−x_ik)·Emax_i ----
	var energyScale float64
	for i := 0; i < M2; i++ {
		emax := 0.0
		for l := 0; l < L; l++ {
			emax = math.Max(emax, s.ExecEnergy(i, l))
		}
		energyScale = math.Max(energyScale, emax)
		for k := 0; k < N; k++ {
			eik := m.AddContinuous(fmt.Sprintf("ecomp[%d][%d]", i, k), 0, emax)
			row := milp.NewExpr(-emax).Add(f.x[i][k], emax).Add(eik, -1)
			for l := 0; l < L; l++ {
				row.Add(z[i][l], s.ExecEnergy(i, l))
			}
			m.AddConstr(row, lp.LE, 0) // Σ E z − emax(1−x) − e_ik ≤ 0
			energyExpr[k].Add(eik, 1)
			pressure.Add(eik, 1)
		}
	}

	// --- timing constraints (6), (7), (8), (9) -------------------------
	for _, pair := range edges {
		a, b := pair[0], pair[1]
		// (6): ts_b + (1−h_a)H + (1−h_b)H ≥ ts_a + tcomp_a + tcomm_b.
		row := milp.NewExpr(0).
			Add(f.ts[a], 1).
			Add(f.ts[b], -1).
			AddExpr(tcomp(a), 1)
		if commTime[b] != nil {
			row.AddExpr(commTime[b], 1)
		}
		rhs := 0.0
		for _, t := range []int{a, b} {
			if t >= M {
				row.Add(f.h[t], H) // −(1−h)H moved across: +hH ≤ rhs+H
				rhs += H
			}
		}
		m.AddConstr(row, lp.LE, rhs)
	}
	// Independent pairs: ordering variables and non-overlap (7). Instead of
	// the paper's per-processor big-M rows, a same-processor indicator
	// σ_ij ≥ x_ik + x_jk − 1 (lower-bounded, so conservative-safe like q)
	// aggregates the N rows into one ordering row per direction.
	indep := func(i, j int) bool { return !s.exp.Dep(i, j) && !s.exp.Dep(j, i) }
	for i := 0; i < M2; i++ {
		for j := i + 1; j < M2; j++ {
			if !indep(i, j) {
				continue
			}
			uij := m.AddBinary(fmt.Sprintf("u[%d][%d]", i, j))
			uji := m.AddBinary(fmt.Sprintf("u[%d][%d]", j, i))
			m.SetBranchPriority(uij, 10)
			m.SetBranchPriority(uji, 10)
			f.u[[2]int{i, j}] = uij
			f.u[[2]int{j, i}] = uji
			sigma := m.AddContinuous(fmt.Sprintf("same[%d][%d]", i, j), 0, 1)
			for k := 0; k < N; k++ {
				// σ ≥ x_ik + x_jk − 1 (− (1−h) slack for copies).
				row := milp.NewExpr(0).
					Add(f.x[i][k], 1).Add(f.x[j][k], 1).Add(sigma, -1)
				rhs := 1.0
				for _, t := range []int{i, j} {
					if t >= M {
						row.Add(f.h[t], 1)
						rhs += 1
					}
				}
				m.AddConstr(row, lp.LE, rhs)
			}
			// Ordering completeness (implicit in the paper): on a shared
			// processor one of the two orders must be chosen.
			m.AddConstr(milp.NewExpr(0).Add(sigma, 1).Add(uij, -1).Add(uji, -1), lp.LE, 0)
			for _, ord := range [][2]int{{i, j}, {j, i}} {
				a, b := ord[0], ord[1]
				// (7): ts_a + tcomp_a ≤ ts_b + (1−σ)H + (1−u_ab)H.
				row := milp.NewExpr(0).
					Add(f.ts[a], 1).Add(f.ts[b], -1).
					AddExpr(tcomp(a), 1).
					Add(sigma, H).
					Add(f.u[[2]int{a, b}], H)
				m.AddConstr(row, lp.LE, 2*H)
			}
		}
	}
	for i := 0; i < M2; i++ {
		// (8): tcomp_i ≤ D_i.
		m.AddConstr(tcomp(i), lp.LE, s.exp.Deadline(i))
		// (9): ts_i + tcomp_i ≤ H.
		m.AddConstr(milp.NewExpr(0).Add(f.ts[i], 1).AddExpr(tcomp(i), 1), lp.LE, H)
	}

	// --- objective ------------------------------------------------------
	eps := epsRel * math.Max(energyScale, 1e-30)
	if opts.Objective == MinimizeEnergy {
		obj := milp.NewExpr(0)
		for k := 0; k < N; k++ {
			obj.AddExpr(energyExpr[k], 1)
		}
		obj.AddExpr(pressure, eps)
		m.SetObjective(obj)
	} else {
		zv := m.EpigraphMin("zmax", energyExpr)
		obj := milp.NewExpr(0).Add(zv, 1).AddExpr(pressure, eps)
		m.SetObjective(obj)
	}
	return f
}

// Extract converts a MILP solution vector into a Deployment.
func (f *Formulation) Extract(x []float64) *Deployment {
	s := f.sys
	d := NewDeployment(s)
	M2 := s.exp.Size()
	for i := 0; i < M2; i++ {
		d.Exists[i] = x[f.h[i]] > 0.5
		best, bestV := 0, -1.0
		for l, v := range f.y[i] {
			if x[v] > bestV {
				best, bestV = l, x[v]
			}
		}
		d.Level[i] = best
		best, bestV = 0, -1.0
		for k, v := range f.x[i] {
			if x[v] > bestV {
				best, bestV = k, x[v]
			}
		}
		d.Proc[i] = best
		d.Start[i] = x[f.ts[i]]
	}
	for b := range f.c {
		for g := range f.c[b] {
			if b == g || f.c[b][g] == nil {
				continue
			}
			best, bestV := 0, -1.0
			for rho, v := range f.c[b][g] {
				if x[v] > bestV {
					best, bestV = rho, x[v]
				}
			}
			d.PathSel[b][g] = best
		}
	}
	return d
}

// IncumbentVector lifts a feasible deployment into a full MILP solution
// vector (decision variables fixed, auxiliaries completed by one LP solve),
// for use as a branch & bound incumbent. It returns nil if the deployment
// does not embed into the formulation (e.g. it violates a constraint).
func (f *Formulation) IncumbentVector(d *Deployment) ([]float64, error) {
	return f.IncumbentVectorCtx(context.Background(), d)
}

// IncumbentVectorCtx is IncumbentVector with a cancellable completion LP:
// on large models that single solve can dominate a short deadline. A
// cancelled completion returns (nil, nil) — no incumbent, not an error.
func (f *Formulation) IncumbentVectorCtx(ctx context.Context, d *Deployment) ([]float64, error) {
	s := f.sys
	M2 := s.exp.Size()
	fixed := map[milp.VarID]float64{}
	setBin := func(v milp.VarID, on bool) {
		if on {
			fixed[v] = 1
		} else {
			fixed[v] = 0
		}
	}
	for i := 0; i < M2; i++ {
		setBin(f.h[i], d.Exists[i])
		for k := range f.x[i] {
			// Constraint (1) holds for all 2M slots, so a non-existing copy
			// still needs a (meaningless) allocation; reuse its recorded
			// processor.
			setBin(f.x[i][k], d.Proc[i] == k)
		}
		for l := range f.y[i] {
			// Non-existing slots still need Σ_l y = 1; reuse their recorded
			// level (NewDeployment zeroes it, which is fine).
			setBin(f.y[i][l], d.Level[i] == l)
		}
		// Start times are left to the completion LP: fixing them exactly
		// would reject schedules that differ from the MILP's timing rows by
		// floating-point drift, and any ordering-consistent schedule works.
	}
	for b := range f.c {
		for g := range f.c[b] {
			if b == g || f.c[b][g] == nil {
				continue
			}
			for rho := range f.c[b][g] {
				setBin(f.c[b][g][rho], d.PathSel[b][g] == rho)
			}
		}
	}
	// Ordering variables: derive a global order from start times (ties by
	// slot id); consistent with any non-overlapping schedule.
	before := func(i, j int) bool {
		if d.Start[i] != d.Start[j] { //lint:allow floateq — deterministic tie-break; tolerance would break transitivity
			return d.Start[i] < d.Start[j]
		}
		return i < j
	}
	for key, v := range f.u {
		setBin(v, before(key[0], key[1]))
	}
	return f.Model.Complete(fixed, lp.Options{Ctx: ctx})
}

// OptimalOptions tunes the exact solver.
type OptimalOptions struct {
	TimeLimit time.Duration
	MaxNodes  int
	RelGap    float64
	// Workers is the number of branch & bound workers sharing the one
	// search: 0 or 1 is one worker and deterministic, n > 1 searches the
	// tree concurrently (same proven optimum, run-to-run node counts vary),
	// negative uses all cores. See milp.SolveOptions.Workers.
	Workers int
	// WarmStart, if non-nil, supplies a heuristic objective value used as a
	// branch & bound cutoff (plus a small margin so an equal optimum is
	// still found).
	WarmStart *float64
	// WarmDeployment, if non-nil and feasible, seeds branch & bound with a
	// full incumbent solution (stronger than WarmStart: pruning plus
	// gap-based termination).
	WarmDeployment *Deployment
}

// OptimalCtx solves problem P1 exactly (within the configured limits) and
// returns the deployment, or a nil deployment if no integral solution was
// found. SolveInfo.Feasible reports whether a feasible deployment exists
// and was found. The context cancels the branch & bound search
// cooperatively: a cancelled solve returns the best incumbent found so far
// with SolveInfo.Cancelled set, or a nil deployment if none was found (see
// Optimal for the context-free wrapper).
func OptimalCtx(ctx context.Context, s *System, opts Options, oo OptimalOptions) (*Deployment, *SolveInfo, error) {
	start := opts.now()
	tr := opts.Trace
	if tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.SolveStart, Label: "optimal"})
	}
	if ctx.Err() != nil {
		return nil, cancelledInfo(opts.now().Sub(start), tr, "optimal"), nil
	}
	f := BuildFormulation(s, opts)
	buildD := opts.now().Sub(start)
	if ctx.Err() != nil {
		return nil, cancelledInfo(opts.now().Sub(start), tr, "optimal"), nil
	}
	so := milp.SolveOptions{
		Ctx:       ctx,
		TimeLimit: oo.TimeLimit,
		MaxNodes:  oo.MaxNodes,
		RelGap:    oo.RelGap,
		Workers:   oo.Workers,
		Trace:     opts.Trace,
		Clock:     opts.Clock,
	}
	if oo.WarmStart != nil {
		so.Cutoff = *oo.WarmStart * (1 + 1e-6)
		so.CutoffSet = true
	}
	if oo.WarmDeployment != nil {
		inc, err := f.IncumbentVectorCtx(ctx, oo.WarmDeployment)
		if err != nil {
			return nil, nil, err
		}
		so.Incumbent = inc // nil (ignored) if the deployment doesn't embed
	}
	solveStart := opts.now()
	res, err := f.Model.Solve(so)
	if err != nil {
		return nil, nil, err
	}
	solveD := opts.now().Sub(solveStart)
	extractStart := opts.now()
	info := &SolveInfo{
		Nodes:     res.Nodes,
		Iters:     res.Iters,
		Cancelled: res.Cancelled,
	}
	for _, inc := range res.Incumbents {
		info.Incumbents = append(info.Incumbents, IncumbentPoint{T: inc.T, Obj: inc.Obj, Nodes: inc.Nodes})
	}
	finish := func() {
		info.Phases = []PhaseTiming{{"build", buildD}, {"solve", solveD}, {"extract", opts.now().Sub(extractStart)}}
		info.Runtime = opts.now().Sub(start)
		if tr.Enabled() {
			tr.Emit(obs.Event{Kind: obs.SolveDone, Label: "optimal", Obj: info.Objective, Phase: feasibilityOutcome(info.Feasible)})
		}
	}
	if res.X == nil {
		info.Feasible = false
		finish()
		return nil, info, nil
	}
	d := f.Extract(res.X)
	m, err := ComputeMetrics(s, d)
	if err != nil {
		return nil, nil, err
	}
	if opts.Objective == MinimizeEnergy {
		info.Objective = m.SumEnergy
	} else {
		info.Objective = m.MaxEnergy
	}
	info.Gap = res.Gap()
	info.Feasible = CheckConstraints(s, d) == nil
	finish()
	return d, info, nil
}
