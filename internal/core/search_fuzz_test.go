package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nocdeploy/internal/numeric"
	"nocdeploy/internal/obs"
	"nocdeploy/internal/reliability"
)

// The reference searches below are Improve, ImprovePaths and AnnealCtx as
// they were written before the in-place moves: every candidate move is
// made on a Clone of the incumbent and scored through the exported entry
// points. FuzzLocalSearch holds the in-place searches to them bit for bit.

// refImprove is an extension beyond the paper: first-improvement local search
// over a feasible deployment. Moves are (a) reassigning one task to a
// different processor and (b) flipping one pair's path selection; a move
// is accepted when the rescheduled deployment stays feasible and the
// objective strictly improves. It returns the improved deployment, its
// objective, and the number of accepted moves.
func refImprove(s *System, d *Deployment, opts Options, maxMoves int) (*Deployment, float64, int) {
	if maxMoves <= 0 {
		maxMoves = 8 * s.Graph.M()
	}
	best, bestObj := d.Clone(), math.Inf(1)
	if m, err := ComputeMetrics(s, best); err == nil {
		bestObj = m.Objective(opts.Objective)
	}
	accepted := 0
	order := ScheduleOrder(s, best)

	for accepted < maxMoves {
		improved := false
	moves:
		for i := 0; i < s.exp.Size(); i++ {
			if !best.Exists[i] {
				continue
			}
			for k := 0; k < s.Mesh.N(); k++ {
				if k == best.Proc[i] {
					continue
				}
				cand := best.Clone()
				cand.Proc[i] = k
				if obj, ok := refImproves(s, cand, order, opts, bestObj); ok {
					best, bestObj = cand, obj
					accepted++
					improved = true
					break moves
				}
			}
		}
		if !improved {
			// Path flips.
			for b := 0; b < s.Mesh.N() && !improved; b++ {
				for g := 0; g < s.Mesh.N(); g++ {
					if b == g {
						continue
					}
					cand := best.Clone()
					cand.PathSel[b][g] = 1 - cand.PathSel[b][g]
					if obj, ok := refImproves(s, cand, order, opts, bestObj); ok {
						best, bestObj = cand, obj
						accepted++
						improved = true
						break
					}
				}
			}
		}
		if !improved {
			break
		}
	}
	return best, bestObj, accepted
}

// refImprovePaths is path-flip-only local search: starting from a feasible
// deployment (typically single-path), it greedily flips individual pairs'
// path selections while feasibility holds and the objective improves. By
// construction the result is never worse than the input, which makes it
// the fair per-instance "multi-path vs single-path" comparison.
func refImprovePaths(s *System, d *Deployment, opts Options) (*Deployment, float64) {
	best, bestObj := d.Clone(), math.Inf(1)
	if m, err := ComputeMetrics(s, best); err == nil {
		bestObj = m.Objective(opts.Objective)
	}
	order := ScheduleOrder(s, best)
	for changed := true; changed; {
		changed = false
		for b := 0; b < s.Mesh.N(); b++ {
			for g := 0; g < s.Mesh.N(); g++ {
				if b == g {
					continue
				}
				cand := best.Clone()
				cand.PathSel[b][g] = 1 - cand.PathSel[b][g]
				if obj, ok := refImproves(s, cand, order, opts, bestObj); ok {
					best, bestObj = cand, obj
					changed = true
				}
			}
		}
	}
	return best, bestObj
}

// refImproves reschedules the candidate move cand in order and returns its
// objective when cand stays feasible and beats bestObj by more than
// EnergyTol. Constraints are checked first, so an infeasible move costs
// no metrics pass.
func refImproves(s *System, cand *Deployment, order []int, opts Options, bestObj float64) (float64, bool) {
	Reschedule(s, cand, order)
	if CheckConstraints(s, cand) != nil {
		return 0, false
	}
	m, err := ComputeMetrics(s, cand)
	if err != nil {
		return 0, false
	}
	obj := m.Objective(opts.Objective)
	return obj, numeric.LtTol(obj, bestObj, EnergyTol)
}

// refAnnealCtx is a simulated-annealing deployment solver — a metaheuristic
// baseline of the kind the paper's related-work table classifies as
// "Heur.". It searches the joint space of levels, duplication (driven by
// rule (4)), allocation and path selection with Metropolis acceptance,
// starting from the repaired three-phase heuristic. Horizon-infeasible
// states pay a large makespan-driven penalty, so a chain that starts
// infeasible first anneals toward schedulability, then optimizes the
// objective. The context is checked every few iterations of the Metropolis
// loop; a cancelled run returns the best feasible deployment found so far
// with SolveInfo.Cancelled set (see Anneal for the context-free wrapper).
func refAnnealCtx(ctx context.Context, s *System, opts Options, ao AnnealOptions) (*Deployment, *SolveInfo, error) {
	startT := opts.now()
	tr := opts.Trace
	if tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.SolveStart, Label: "anneal"})
	}
	ao = ao.withDefaults(s.Graph.M())
	rng := rand.New(rand.NewSource(ao.Seed))

	cur, hinfo, err := HeuristicWithRepairCtx(ctx, s, opts, ao.Seed, 0)
	if err != nil {
		return nil, nil, err
	}
	if hinfo.Cancelled {
		return cur, cancelledInfo(opts.now().Sub(startT), tr, "anneal"), nil
	}

	// relaxed ignores the horizon so infeasible states still score.
	relaxed := *s
	relaxed.H = math.Inf(1)

	evaluate := func(d *Deployment) annealEval {
		mk := Reschedule(s, d, ScheduleOrder(s, d))
		if CheckConstraints(&relaxed, d) != nil {
			return annealEval{}
		}
		m, err := ComputeMetrics(s, d)
		if err != nil {
			return annealEval{}
		}
		return annealEval{
			okStruct: true,
			okFull:   mk <= s.H+timeTol,
			obj:      m.Objective(opts.Objective),
			makespan: mk,
		}
	}

	curEval := evaluate(cur)
	best := cur.Clone()
	bestEval := curEval
	scale := math.Max(curEval.obj, 1e-12)

	// scalarEnergy maps an evaluation onto one annealed axis: feasible
	// states score by normalized objective, infeasible ones by makespan
	// plus an offset larger than any feasible score.
	scalarEnergy := func(e annealEval) float64 {
		if !e.okStruct {
			return math.Inf(1)
		}
		if !e.okFull {
			return 10 + e.makespan/math.Max(s.H, 1e-12)
		}
		return e.obj / scale
	}

	cool := math.Pow(ao.T1/ao.T0, 1/float64(ao.Iters))
	temp := ao.T0
	L := s.Plat.L()
	M := s.Graph.M()

	// propose mutates a clone of cur with one random move; nil means the
	// move was structurally inadmissible and costs nothing.
	propose := func() *Deployment {
		d := cur.Clone()
		switch rng.Intn(4) {
		case 0: // reassign a random existing slot
			slot := randomExisting(rng, d)
			d.Proc[slot] = rng.Intn(s.Mesh.N())
		case 1: // flip a random pair's path selection
			b := rng.Intn(s.Mesh.N())
			g := rng.Intn(s.Mesh.N())
			if b == g {
				return nil
			}
			d.PathSel[b][g] = 1 - d.PathSel[b][g]
		case 2: // move a random original's level and re-apply rule (4)
			i := rng.Intn(M)
			l := d.Level[i] + 1 - 2*rng.Intn(2)
			if l < 0 || l >= L || s.ExecTime(i, l) > s.exp.Deadline(i) {
				return nil
			}
			d.Level[i] = l
			ri := s.Reliability(i, l)
			dup := i + M
			if ri >= s.Rel.Rth {
				d.Exists[dup] = false
				return d
			}
			// Needs a replica: cheapest level satisfying (5) and (8).
			found, bestE := -1, math.Inf(1)
			for l2 := 0; l2 < L; l2++ {
				if s.ExecTime(dup, l2) > s.exp.Deadline(dup) {
					continue
				}
				if reliability.Combined(ri, s.Reliability(dup, l2)) < s.Rel.Rth {
					continue
				}
				if e := s.ExecEnergy(dup, l2); e < bestE {
					found, bestE = l2, e
				}
			}
			if found < 0 {
				return nil
			}
			if !d.Exists[dup] {
				d.Exists[dup] = true
				d.Proc[dup] = rng.Intn(s.Mesh.N())
			}
			d.Level[dup] = found
		default: // move an existing replica's level under (5) and (8)
			dup := -1
			for attempt := 0; attempt < 4; attempt++ {
				if c := M + rng.Intn(M); d.Exists[c] {
					dup = c
					break
				}
			}
			if dup < 0 {
				return nil
			}
			l2 := d.Level[dup] + 1 - 2*rng.Intn(2)
			if l2 < 0 || l2 >= L || s.ExecTime(dup, l2) > s.exp.Deadline(dup) {
				return nil
			}
			orig := s.exp.Orig(dup)
			if reliability.Combined(s.Reliability(orig, d.Level[orig]), s.Reliability(dup, l2)) < s.Rel.Rth {
				return nil
			}
			d.Level[dup] = l2
		}
		return d
	}

	cancelled := false
	// ctxStride amortizes the context check: Err takes a lock in the
	// common WithCancel/WithDeadline implementations, so probing every
	// iteration would tax the annealing hot loop.
	const ctxStride = 64
	for it := 0; it < ao.Iters; it++ {
		if it%ctxStride == 0 && ctx.Err() != nil {
			cancelled = true
			break
		}
		temp *= cool
		cand := propose()
		if cand == nil {
			continue
		}
		ce := evaluate(cand)
		if !ce.okStruct {
			continue
		}
		dE := scalarEnergy(ce) - scalarEnergy(curEval)
		if dE <= 0 || rng.Float64() < math.Exp(-dE/math.Max(temp, 1e-12)) {
			cur, curEval = cand, ce
			if ce.okFull && (!bestEval.okFull || ce.obj < bestEval.obj) {
				best = cand.Clone()
				bestEval = ce
			}
			if tr.Enabled() {
				tr.Emit(obs.Event{Kind: obs.AnnealAccept, Node: it, Obj: ce.obj})
			}
		} else if tr.Enabled() {
			tr.Emit(obs.Event{Kind: obs.AnnealReject, Node: it})
		}
	}

	m, err := ComputeMetrics(s, best)
	if err != nil {
		return nil, nil, err
	}
	info := &SolveInfo{
		Runtime:   opts.now().Sub(startT),
		Feasible:  bestEval.okFull && CheckConstraints(s, best) == nil,
		Objective: m.Objective(opts.Objective),
		Cancelled: cancelled,
	}
	if tr.Enabled() {
		outcome := feasibilityOutcome(info.Feasible)
		if cancelled {
			outcome = "cancelled"
		}
		tr.Emit(obs.Event{Kind: obs.SolveDone, Label: "anneal", Obj: info.Objective, Phase: outcome})
	}
	return best, info, nil
}

// perturb applies kicks random moves to d: a processor move, a path
// flip, a level change (which may break the reliability and deadline
// constraints), a replica switched on or off, a start time moved
// anywhere in [0, H], or, rarely, one moved below zero, which fails the
// structure check until a search reschedules it. The result may be
// infeasible.
func perturb(rng *rand.Rand, s *System, d *Deployment, kicks int) {
	M, n, L := s.Graph.M(), s.Mesh.N(), s.Plat.L()
	for ; kicks > 0; kicks-- {
		i := randomExisting(rng, d)
		switch rng.Intn(11) / 2 {
		case 0:
			d.Proc[i] = rng.Intn(n)
		case 1:
			if b, g := rng.Intn(n), rng.Intn(n); b != g {
				d.PathSel[b][g] = 1 - d.PathSel[b][g]
			}
		case 2:
			d.Level[i] = rng.Intn(L)
		case 3:
			dup := M + i%M
			d.Exists[dup] = !d.Exists[dup]
			d.Level[dup], d.Proc[dup] = rng.Intn(L), rng.Intn(n)
		case 4:
			d.Start[i] = s.H * rng.Float64()
		default:
			d.Start[i] = -s.H * (0.5 + rng.Float64())
		}
	}
}

// sameDeployment fails unless got and want agree in every field, bit for
// bit, Start of non-existing slots included.
func sameDeployment(t *testing.T, what string, got, want *Deployment) {
	t.Helper()
	for i := range want.Exists {
		if got.Exists[i] != want.Exists[i] || got.Level[i] != want.Level[i] || got.Proc[i] != want.Proc[i] {
			t.Fatalf("%s: slot %d is (exists %v, level %d, proc %d), reference (%v, %d, %d)", what, i,
				got.Exists[i], got.Level[i], got.Proc[i], want.Exists[i], want.Level[i], want.Proc[i])
		}
		sameBits(t, fmt.Sprintf("%s: Start[%d]", what, i), got.Start[i], want.Start[i])
	}
	for b, row := range want.PathSel {
		for g, rho := range row {
			if got.PathSel[b][g] != rho {
				t.Fatalf("%s: PathSel[%d][%d] = %d, reference %d", what, b, g, got.PathSel[b][g], rho)
			}
		}
	}
}

// FuzzLocalSearch runs Improve, ImprovePaths and AnnealCtx next to the
// clone-per-candidate references above on a random 2×2 to 4×4 instance,
// under a random objective, path mode and communication estimate. The
// local searches start from the repaired heuristic after random
// perturbations, infeasible ones included; anneal runs 50–300 iterations
// under a random seed. Every returned field, objective and count must
// have the reference's bits, and the caller's deployment must come back
// unchanged.
func FuzzLocalSearch(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(4), uint8(0), uint8(0), uint8(3), uint16(0))
	f.Add(int64(2), uint8(1), uint8(1), uint8(9), uint8(1), uint8(2), uint8(7), uint16(120))
	f.Add(int64(3), uint8(2), uint8(2), uint8(15), uint8(2), uint8(1), uint8(5), uint16(250))
	f.Add(int64(4), uint8(2), uint8(0), uint8(11), uint8(3), uint8(4), uint8(0), uint16(60))
	f.Add(int64(5), uint8(0), uint8(2), uint8(7), uint8(4), uint8(5), uint8(2), uint16(200))
	f.Add(int64(6), uint8(1), uint8(2), uint8(13), uint8(5), uint8(3), uint8(6), uint16(180))
	f.Add(int64(7), uint8(2), uint8(1), uint8(6), uint8(6), uint8(0), uint8(1), uint16(90))
	f.Add(int64(8), uint8(1), uint8(0), uint8(10), uint8(7), uint8(2), uint8(4), uint16(30))
	// Found by fuzzing mutants: anneal moves that switch a replica off
	// and on, and a start below zero, where every pair's flip is scored.
	f.Add(int64(8), uint8(128), uint8(74), uint8(1), uint8(87), uint8(1), uint8(54), uint16(157))
	f.Add(int64(6), uint8(0), uint8(110), uint8(1), uint8(17), uint8(0), uint8(3), uint16(30))
	f.Add(int64(-71), uint8(6), uint8(29), uint8(97), uint8(17), uint8(5), uint8(62), uint16(155))
	f.Fuzz(func(t *testing.T, seed int64, w, h, m, flags, kicks, moves uint8, iters uint16) {
		rng := rand.New(rand.NewSource(seed))
		s, err := fuzzInstance(rng, 2+int(w%3), 2+int(h%3), 1+int(m%16))
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{
			Objective:    Objective(flags & 1),
			SinglePath:   flags&2 != 0,
			CommEstimate: CommEstimate(flags >> 2 & 1),
		}
		d, _, err := HeuristicWithRepair(s, opts, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		perturb(rng, s, d, int(kicks%6))
		in := d.Clone()

		maxMoves := 1 + int(moves%8)
		got, gotObj, gotN := Improve(s, d, opts, maxMoves)
		sameDeployment(t, "Improve input", d, in)
		want, wantObj, wantN := refImprove(s, d, opts, maxMoves)
		sameDeployment(t, "Improve", got, want)
		sameBits(t, "Improve objective", gotObj, wantObj)
		if gotN != wantN {
			t.Fatalf("Improve accepted %d moves, reference %d", gotN, wantN)
		}

		got, gotObj = ImprovePaths(s, d, opts)
		sameDeployment(t, "ImprovePaths input", d, in)
		want, wantObj = refImprovePaths(s, d, opts)
		sameDeployment(t, "ImprovePaths", got, want)
		sameBits(t, "ImprovePaths objective", gotObj, wantObj)

		ao := AnnealOptions{Iters: 50 + int(iters%251), Seed: rng.Int63()}
		got, gi, err := AnnealCtx(context.Background(), s, opts, ao)
		if err != nil {
			t.Fatal(err)
		}
		want, wi, err := refAnnealCtx(context.Background(), s, opts, ao)
		if err != nil {
			t.Fatal(err)
		}
		sameDeployment(t, "AnnealCtx", got, want)
		sameBits(t, "AnnealCtx objective", gi.Objective, wi.Objective)
		if gi.Feasible != wi.Feasible || gi.Cancelled != wi.Cancelled {
			t.Fatalf("AnnealCtx feasible/cancelled = %v/%v, reference %v/%v", gi.Feasible, gi.Cancelled, wi.Feasible, wi.Cancelled)
		}
	})
}
