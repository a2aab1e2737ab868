package core

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"nocdeploy/internal/noc"
	"nocdeploy/internal/numeric"
	"nocdeploy/internal/obs"
	"nocdeploy/internal/reliability"
)

// EnergyTol is the absolute tie-break tolerance for energy comparisons in
// the greedy phases, the local searches and the portfolio engine's
// acceptance: energies are joule-scale (1e-6..1e-3 for realistic
// instances), so 1e-15 separates real improvements from accumulated
// rounding noise without masking genuine ties.
const EnergyTol = 1e-15

// SolveInfo reports how a solve went.
type SolveInfo struct {
	Runtime   time.Duration
	Feasible  bool
	Objective float64 // value of the chosen objective (BE: max_k, ME: Σ_k)
	// Cancelled reports that the context of a *Ctx entry point was
	// cancelled before the solve finished. The returned deployment is the
	// best incumbent found so far (possibly partial for the constructive
	// heuristic); Feasible refers to that incumbent.
	Cancelled bool
	// Phases breaks Runtime into named solver phases (heuristic: P1/P2/P3;
	// exact solver: build/solve/extract). Nil when the solver does not
	// decompose (e.g. annealing).
	Phases []PhaseTiming
	// MILP-only fields; zero for the heuristic.
	Nodes int
	Iters int
	Gap   float64
	// Incumbents is the incumbent trajectory, filled by the exact solver
	// (model-scale MILP objective per improvement) and the portfolio
	// (the constructed incumbent, then each improvement); nil for the
	// heuristic, repair and annealing.
	Incumbents []IncumbentPoint
	// Operators is the portfolio's work per operator name, in portfolio
	// order, including names never applied; nil for every other solver.
	Operators []OperatorStat
}

// PhaseTiming is the wall-clock spent in one named solver phase.
type PhaseTiming struct {
	Name string
	D    time.Duration
}

// IncumbentPoint is one improvement of a solve's incumbent.
type IncumbentPoint struct {
	T     time.Duration // since the solver started (the MILP solve, for the exact solver)
	Obj   float64       // objective at acceptance (model scale for the exact solver)
	Nodes int           // LP relaxations solved at acceptance time (exact solver)
}

// OperatorStat is one portfolio operator's work during a solve: its
// applications, how many of them improved the incumbent, and their summed
// wall-clock seconds. Operators sharing a name share one entry.
type OperatorStat struct {
	Name         string
	Applies      int
	Improvements int
	Seconds      float64
}

// HeuristicCtx runs the paper's three-phase decomposition (Algorithms 1–3)
// and returns the deployment together with solve information. The returned
// error is non-nil only for malformed inputs; an infeasible outcome is
// reported via SolveInfo.Feasible with the best-effort deployment attached.
// The context is checked between phases: a cancelled solve returns the
// partial deployment with SolveInfo.Cancelled set (see Heuristic for the
// context-free wrapper).
func HeuristicCtx(ctx context.Context, s *System, opts Options, seed int64) (*Deployment, *SolveInfo, error) {
	startT := opts.now()
	tr := opts.Trace
	if tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.SolveStart, Label: "heuristic"})
		tr.Emit(obs.Event{Kind: obs.HeurPhaseStart, Phase: "P1"})
	}
	d := NewDeployment(s)

	if ctx.Err() != nil {
		return d, cancelledInfo(opts.now().Sub(startT), tr, "heuristic"), nil
	}
	ok1 := phase1FrequencyAndDuplication(s, d)
	t1 := opts.now().Sub(startT)
	if tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.HeurPhaseEnd, Phase: "P1", Dur: t1.Seconds()})
	}
	if ctx.Err() != nil {
		return d, cancelledInfo(opts.now().Sub(startT), tr, "heuristic"), nil
	}
	ok23, t2, t3, err := deployGivenLevels(ctx, s, d, seed, opts)
	if err != nil {
		return nil, nil, err
	}
	if ctx.Err() != nil {
		return d, cancelledInfo(opts.now().Sub(startT), tr, "heuristic"), nil
	}

	m, err := ComputeMetrics(s, d)
	if err != nil {
		return nil, nil, err
	}
	info := &SolveInfo{
		Phases:    []PhaseTiming{{"P1", t1}, {"P2", t2}, {"P3", t3}},
		Objective: m.Objective(opts.Objective),
	}
	info.Feasible = ok1 && ok23 && CheckConstraints(s, d) == nil
	// Stamped last so Runtime covers the full solve including the metrics
	// and constraint evaluation above.
	info.Runtime = opts.now().Sub(startT)
	if tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.SolveDone, Label: "heuristic", Obj: info.Objective, Phase: feasibilityOutcome(info.Feasible)})
	}
	return d, info, nil
}

// feasibilityOutcome names a solve outcome for telemetry.
func feasibilityOutcome(feasible bool) string {
	if feasible {
		return "feasible"
	}
	return "infeasible"
}

// cancelledInfo builds the SolveInfo for a solve abandoned on context
// cancellation and emits the closing trace event. The caller measures the
// elapsed time through its options clock.
func cancelledInfo(elapsed time.Duration, tr *obs.Trace, label string) *SolveInfo {
	info := &SolveInfo{Runtime: elapsed, Cancelled: true}
	if tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.SolveDone, Label: label, Phase: "cancelled"})
	}
	return info
}

// deployGivenLevels runs phases 2 and 3 for a deployment whose levels and
// duplication flags are already decided, reporting horizon feasibility and
// the wall-clock spent in each phase. The context is checked between the
// phases; a cancelled run returns ok=false without touching Phase 3 (the
// caller notices ctx.Err and reports Cancelled).
func deployGivenLevels(ctx context.Context, s *System, d *Deployment, seed int64, opts Options) (ok bool, t2, t3 time.Duration, err error) {
	tr := opts.Trace
	if tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.HeurPhaseStart, Phase: "P2"})
	}
	var w workspace
	p2Start := opts.now()
	order := phase2Allocation(&w, s, d, seed, opts)
	t2 = opts.now().Sub(p2Start)
	if tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.HeurPhaseEnd, Phase: "P2", Dur: t2.Seconds()})
		tr.Emit(obs.Event{Kind: obs.HeurPhaseStart, Phase: "P3"})
	}
	if ctx.Err() != nil {
		return false, t2, 0, nil
	}
	p3Start := opts.now()
	ok, err = phase3PathSelection(&w, s, d, order, opts)
	t3 = opts.now().Sub(p3Start)
	if tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.HeurPhaseEnd, Phase: "P3", Dur: t3.Seconds()})
	}
	return ok, t2, t3, err
}

// phase1FrequencyAndDuplication implements Algorithm 1: greedy V/F level
// assignment minimizing the running maximum per-task computation energy
// (problem P2), then duplication per the reliability rule (4) and level
// assignment for the copies under the combined-reliability constraint (5).
func phase1FrequencyAndDuplication(s *System, d *Deployment) bool {
	M := s.Graph.M()
	L := s.Plat.L()
	feasible := true
	var runningMax float64

	// pickLevel selects the level minimizing the increase of the running
	// maximum computation energy; admissible filters candidate levels.
	pickLevel := func(slot int, admissible func(l int) bool) int {
		best, bestMax, bestE, bestF := -1, math.Inf(1), math.Inf(1), -1.0
		for l := 0; l < L; l++ {
			if s.ExecTime(slot, l) > s.exp.Deadline(slot) {
				continue // real-time constraint (8)
			}
			if !admissible(l) {
				continue
			}
			e := s.ExecEnergy(slot, l)
			emax := math.Max(runningMax, e)
			f := s.Plat.Levels[l].Freq
			// Primary: smallest resulting maximum; secondary: cheapest;
			// tertiary: fastest (more reliable).
			if numeric.LtTol(emax, bestMax, EnergyTol) ||
				(numeric.LeqTol(emax, bestMax, EnergyTol) && (numeric.LtTol(e, bestE, EnergyTol) ||
					(numeric.LeqTol(e, bestE, EnergyTol) && f > bestF))) {
				best, bestMax, bestE, bestF = l, emax, e, f
			}
		}
		return best
	}

	for i := 0; i < M; i++ {
		l := pickLevel(i, func(int) bool { return true })
		if l < 0 {
			// No level meets the deadline: record an arbitrary level and
			// mark the whole run infeasible.
			feasible = false
			l = L - 1
		}
		d.Level[i] = l
		ri := s.Reliability(i, l)
		dup := i + M

		// Duplication rule (4): duplicate iff r_i < Rth.
		if ri >= s.Rel.Rth {
			runningMax = math.Max(runningMax, s.ExecEnergy(i, l))
			continue
		}
		d.Exists[dup] = true
		l2 := pickLevel(dup, func(cand int) bool {
			return reliability.Combined(ri, s.Reliability(dup, cand)) >= s.Rel.Rth
		})
		if l2 < 0 {
			// No copy level rescues the greedy original level: repair by
			// jointly re-picking both levels for the minimum increase of
			// the running maximum ("minimum energy increase", Alg. 1c).
			l, l2 = jointLevels(s, i, runningMax)
			if l < 0 {
				feasible = false
				l, l2 = L-1, L-1
			}
			d.Level[i] = l
			ri = s.Reliability(i, l)
			if ri >= s.Rel.Rth {
				// The repaired original is reliable on its own.
				d.Exists[dup] = false
				runningMax = math.Max(runningMax, s.ExecEnergy(i, l))
				continue
			}
		}
		d.Level[dup] = l2
		runningMax = math.Max(runningMax, s.ExecEnergy(i, l))
		runningMax = math.Max(runningMax, s.ExecEnergy(dup, l2))
	}
	return feasible
}

// jointLevels searches all (original, copy) level pairs — and the
// no-duplication options — for the reliability- and deadline-feasible
// choice minimizing the increase of the running maximum energy, breaking
// ties toward lower total energy. It returns (-1, -1) if nothing works;
// the copy level is -1 when the original alone suffices.
func jointLevels(s *System, i int, runningMax float64) (orig, copyLevel int) {
	M := s.Graph.M()
	L := s.Plat.L()
	best1, best2 := -1, -1
	bestMax, bestTot := math.Inf(1), math.Inf(1)
	consider := func(l1, l2 int) {
		e := s.ExecEnergy(i, l1)
		tot := e
		if l2 >= 0 {
			e2 := s.ExecEnergy(i+M, l2)
			tot += e2
			e = math.Max(e, e2)
		}
		emax := math.Max(runningMax, e)
		if numeric.LtTol(emax, bestMax, EnergyTol) ||
			(numeric.LeqTol(emax, bestMax, EnergyTol) && numeric.LtTol(tot, bestTot, EnergyTol)) {
			best1, best2, bestMax, bestTot = l1, l2, emax, tot
		}
	}
	for l1 := 0; l1 < L; l1++ {
		if s.ExecTime(i, l1) > s.exp.Deadline(i) {
			continue
		}
		r1 := s.Reliability(i, l1)
		if r1 >= s.Rel.Rth {
			consider(l1, -1)
			continue
		}
		for l2 := 0; l2 < L; l2++ {
			if s.ExecTime(i+M, l2) > s.exp.Deadline(i+M) {
				continue
			}
			if reliability.Combined(r1, s.Reliability(i+M, l2)) >= s.Rel.Rth {
				consider(l1, l2)
			}
		}
	}
	return best1, best2
}

// phase2Allocation implements Algorithm 2: existing tasks are layered by
// dependency depth, sorted within a layer by descending cycle count
// (random tie-break), then greedily allocated to the processor minimizing
// the objective increase — the maximum per-processor energy for BE, the
// total energy for ME — with communication costs estimated by the ρ-average
// over the real candidate paths. It returns the slot order used, which is a
// topological order of the existing subgraph.
func phase2Allocation(w *workspace, s *System, d *Deployment, seed int64, opts Options) []int {
	rng := rand.New(rand.NewSource(seed))
	order, start := s.exp.ExistingLayers(d.Exists)
	for l := 0; l+1 < len(start); l++ {
		layer := order[start[l]:start[l+1]]
		// Shuffle first so equal-cycle ties are broken randomly, then a
		// stable sort by descending WCEC preserves that random tie order.
		rng.Shuffle(len(layer), func(i, j int) { layer[i], layer[j] = layer[j], layer[i] })
		sort.SliceStable(layer, func(a, b int) bool {
			return s.exp.WCEC(layer[a]) > s.exp.WCEC(layer[b])
		})
	}

	edges := s.exp.DepEdges()
	n := s.Mesh.N()
	comp := make([]float64, n)
	comm := make([]float64, n)
	procFree := make([]float64, n)           // estimated per-processor finish time
	estEnd := make([]float64, len(d.Exists)) // estimated end time per slot
	commDelta := make([]float64, n)
	tLo, tHi := s.Mesh.TimeBounds()
	for _, slot := range order {
		eComp := s.ExecEnergy(slot, d.Level[slot])
		tComp := s.ExecTime(slot, d.Level[slot])
		bestK, bestMax := -1, math.Inf(1)
		// Schedule-aware capacity filter (constraint (9) during
		// allocation): estimate the slot's end time on each candidate —
		// predecessors already have estimated ends — and skip processors
		// where the slot would overrun the horizon; if every processor
		// overruns, fall back to all of them.
		// Mirrors scheduleExisting: ready = max predecessor end + summed
		// communication time. Under the paper's constant estimate the
		// per-edge time is the global midpoint regardless of placement.
		estEndOn := func(k int) float64 {
			ready, commSum := 0.0, 0.0
			for _, ei := range s.exp.In(slot) {
				pa := edges[ei][0]
				if !d.Exists[pa] {
					continue
				}
				if e := estEnd[pa]; e > ready {
					ready = e
				}
				if opts.CommEstimate == EstimateConstant {
					commSum += s.exp.EdgeData(ei) * (tLo + tHi) / 2
					continue
				}
				if g := d.Proc[pa]; g != k {
					commSum += avgEdgeTime(s, ei, g, k)
				}
			}
			return math.Max(ready+commSum, procFree[k]) + tComp
		}
		fits := func(k int) bool { return estEndOn(k) <= s.H }
		anyFits := false
		for k := 0; k < n; k++ {
			if fits(k) {
				anyFits = true
				break
			}
		}
		for k := 0; k < n; k++ {
			if anyFits && !fits(k) {
				continue
			}
			// Communication estimate: predecessors are already placed; the
			// path is unknown at this phase, so average over ρ (zero when
			// co-located), as discussed in DESIGN.md. The paper's constant
			// estimate is allocation-independent, so it contributes no
			// delta and the allocation becomes communication-blind.
			for kp := range commDelta {
				commDelta[kp] = 0
			}
			for _, ei := range s.exp.In(slot) {
				pa := edges[ei][0]
				if !d.Exists[pa] {
					continue
				}
				g := d.Proc[pa]
				if g == k || opts.CommEstimate == EstimateConstant {
					continue
				}
				addAvgCommEnergy(s, commDelta, g, k, s.exp.EdgeData(ei))
			}
			score := 0.0
			for kp := 0; kp < n; kp++ {
				e := comp[kp] + comm[kp] + commDelta[kp]
				if kp == k {
					e += eComp
				}
				if opts.Objective == MinimizeEnergy {
					score += e
				} else if e > score {
					score = e
				}
			}
			if numeric.LtTol(score, bestMax, EnergyTol) {
				bestK, bestMax = k, score
			}
		}
		d.Proc[slot] = bestK
		comp[bestK] += eComp
		end := estEndOn(bestK)
		estEnd[slot] = end
		procFree[bestK] = end
		if opts.CommEstimate == EstimateConstant {
			continue // the paper's constant E_k^comm carries no placement info
		}
		for _, ei := range s.exp.In(slot) {
			pa := edges[ei][0]
			if !d.Exists[pa] {
				continue
			}
			if g := d.Proc[pa]; g != bestK {
				addAvgCommEnergy(s, comm, g, bestK, s.exp.EdgeData(ei))
			}
		}
	}

	// Initial schedule (t^s, and implicitly u) with ρ-averaged comm times.
	w.schedule(s, d, order, func(i int) float64 {
		return avgCommTime(s, d, i)
	})
	return order
}

// avgCommTime is t_i^comm with per-pair times averaged over the candidate
// paths (used before Phase 3 fixes the routes).
func avgCommTime(s *System, d *Deployment, i int) float64 {
	edges := s.exp.DepEdges()
	gamma := d.Proc[i]
	var t float64
	for _, k := range s.exp.In(i) {
		a := edges[k][0]
		if !d.Exists[a] {
			continue
		}
		if beta := d.Proc[a]; beta != gamma {
			t += avgEdgeTime(s, k, beta, gamma)
		}
	}
	return t
}

// avgEdgeTime is the time to move dependency edge ei's data from β to γ
// with t[β][γ][ρ] averaged over the candidate paths ρ.
func avgEdgeTime(s *System, ei, beta, gamma int) float64 {
	var avg float64
	for rho := 0; rho < noc.NumPaths; rho++ {
		avg += s.Mesh.TimePerByte(beta, gamma, rho)
	}
	return s.exp.EdgeData(ei) * avg / noc.NumPaths
}

// addAvgCommEnergy adds to into[k] the energy router k spends moving bytes
// from β to γ, with e[β][γ][k][ρ] averaged over the candidate paths ρ. The
// energy is zero off a path, so only the routers of the candidate paths
// change, each once.
func addAvgCommEnergy(s *System, into []float64, beta, gamma int, bytes float64) {
	var paths [noc.NumPaths]noc.Path
	for rho := range paths {
		paths[rho] = s.Mesh.PathOf(beta, gamma, rho)
	}
	for rho, p := range paths {
		for _, k := range p.Nodes {
			if slices.ContainsFunc(paths[:rho], func(q noc.Path) bool { return slices.Contains(q.Nodes, k) }) {
				continue // charged with an earlier path
			}
			var avg float64
			for _, q := range paths[rho:] {
				if i := slices.Index(q.Nodes, k); i >= 0 {
					avg += q.Energy[i]
				}
			}
			into[k] += bytes * avg / noc.NumPaths
		}
	}
}

// schedule list-schedules existing slots in the given topological order
// on their assigned processors: a slot starts when its processor is free
// and every predecessor has finished and its input data has arrived
// (constraints (6) and (7)). It returns the makespan.
func (w *workspace) schedule(s *System, d *Deployment, order []int, commTime func(i int) float64) float64 {
	edges := s.exp.DepEdges()
	w.procFree = zeroed(w.procFree, s.Mesh.N())
	procFree := w.procFree
	var makespan float64
	for _, i := range order {
		ready := 0.0
		for _, k := range s.exp.In(i) {
			a := edges[k][0]
			if !d.Exists[a] {
				continue
			}
			if e := d.End(s, a); e > ready {
				ready = e
			}
		}
		ready += commTime(i)
		k := d.Proc[i]
		start := math.Max(ready, procFree[k])
		d.Start[i] = start
		end := start + s.ExecTime(i, d.Level[i])
		procFree[k] = end
		if end > makespan {
			makespan = end
		}
	}
	return makespan
}

// ScheduleOrder returns a topological order of d's existing slots, the
// order Reschedule replays them in: layer by layer of dependency depth,
// ascending within a layer (task.Expanded.ExistingLayers). It depends on
// Exists alone, so one order serves every move that leaves Exists
// unchanged.
func ScheduleOrder(s *System, d *Deployment) []int {
	order, _ := s.exp.ExistingLayers(d.Exists)
	return order
}

// Reschedule list-schedules d's existing slots in order (see
// ScheduleOrder) with the communication times of the selected paths,
// writes their start times and returns the makespan. It restores a
// consistent schedule after a move changes Proc, Level or PathSel.
func Reschedule(s *System, d *Deployment, order []int) float64 {
	return new(workspace).reschedule(s, d, order)
}

// reschedule is Reschedule on the workspace's buffers.
func (w *workspace) reschedule(s *System, d *Deployment, order []int) float64 {
	return w.schedule(s, d, order, func(i int) float64 { return d.CommTime(s, i) })
}

// phase3PathSelection implements Algorithm 3: for every processor pair with
// traffic, greedily pick the candidate path minimizing the maximum
// per-processor energy subject to the horizon (9), starting from the
// energy-oriented default. It reports whether the final schedule meets the
// horizon.
func phase3PathSelection(w *workspace, s *System, d *Deployment, order []int, opts Options) (bool, error) {
	if opts.SinglePath {
		// Baseline: every route pinned to the energy-oriented path.
		makespan := w.reschedule(s, d, order)
		return numeric.LeqTol(makespan, s.H, timeTol), nil
	}

	n := s.Mesh.N()
	used := usedPairs(s, d, nil)
	evaluate := func() (maxCost, makespan float64, err error) {
		makespan = w.reschedule(s, d, order)
		m, err := w.metrics(s, d)
		if err != nil {
			// Structure was validated before Phase 3, so a metrics failure
			// is an internal inconsistency worth surfacing to the caller.
			return 0, 0, err
		}
		return m.Objective(opts.Objective), makespan, nil
	}

	for beta := 0; beta < n; beta++ {
		for gamma := 0; gamma < n; gamma++ {
			if !used[beta*n+gamma] {
				continue
			}
			bestRho, bestCost := -1, math.Inf(1)
			fallbackRho, fallbackSpan := 0, math.Inf(1)
			for rho := 0; rho < noc.NumPaths; rho++ {
				d.PathSel[beta][gamma] = rho
				cost, span, err := evaluate()
				if err != nil {
					return false, err
				}
				if span < fallbackSpan {
					fallbackRho, fallbackSpan = rho, span
				}
				if numeric.GtTol(span, s.H, timeTol) {
					continue // violates (9)
				}
				if numeric.LtTol(cost, bestCost, EnergyTol) {
					bestRho, bestCost = rho, cost
				}
			}
			if bestRho < 0 {
				// Neither path meets the horizon: keep the faster one; the
				// run will be reported infeasible.
				bestRho = fallbackRho
			}
			d.PathSel[beta][gamma] = bestRho
		}
	}
	makespan := w.reschedule(s, d, order)
	return numeric.LeqTol(makespan, s.H, timeTol), nil
}

// usedPairs marks, in used[β·N+γ], every processor pair (β, γ) that
// carries data under d's allocation: some dependency edge between
// existing slots runs from β to γ ≠ β. It reuses used's storage. Only
// these pairs' path selections enter comm times and energies.
func usedPairs(s *System, d *Deployment, used []bool) []bool {
	n := s.Mesh.N()
	used = zeroed(used, n*n)
	for _, pair := range s.exp.DepEdges() {
		a, b := pair[0], pair[1]
		if !d.Exists[a] || !d.Exists[b] {
			continue
		}
		if d.Proc[a] != d.Proc[b] {
			used[d.Proc[a]*n+d.Proc[b]] = true
		}
	}
	return used
}
