package core

import (
	"context"
	"math"
	"math/rand"

	"nocdeploy/internal/numeric"
	"nocdeploy/internal/obs"
	"nocdeploy/internal/reliability"
)

// AnnealOptions tunes the simulated-annealing solver.
type AnnealOptions struct {
	Iters int     // move attempts; 0 means 2000·M
	T0    float64 // initial temperature (fraction of the initial objective); 0 means 0.2
	T1    float64 // final temperature fraction; 0 means 1e-4
	Seed  int64
}

func (o AnnealOptions) withDefaults(m int) AnnealOptions {
	if o.Iters == 0 {
		o.Iters = 2000 * m
	}
	if numeric.IsZero(o.T0) {
		o.T0 = 0.2
	}
	if numeric.IsZero(o.T1) {
		o.T1 = 1e-4
	}
	return o
}

// annealEval scores one candidate deployment.
type annealEval struct {
	okStruct bool // every constraint except the horizon
	okFull   bool // including the horizon (9)
	obj      float64
	makespan float64
}

// AnnealCtx is a simulated-annealing deployment solver — a metaheuristic
// baseline of the kind the paper's related-work table classifies as
// "Heur.". It searches the joint space of levels, duplication (driven by
// rule (4)), allocation and path selection with Metropolis acceptance,
// starting from the repaired three-phase heuristic. Horizon-infeasible
// states pay a large makespan-driven penalty, so a chain that starts
// infeasible first anneals toward schedulability, then optimizes the
// objective. Each move is applied to the current deployment in place and
// undone if rejected. The context is checked every few iterations of the
// Metropolis loop; a cancelled run returns the best feasible deployment
// found so far with SolveInfo.Cancelled set (see Anneal for the
// context-free wrapper).
func AnnealCtx(ctx context.Context, s *System, opts Options, ao AnnealOptions) (*Deployment, *SolveInfo, error) {
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

	var w workspace
	evaluate := func(d *Deployment, order []int) annealEval {
		mk := w.reschedule(s, d, order)
		if w.check(&relaxed, d) != nil {
			return annealEval{}
		}
		m, err := w.metrics(s, d)
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

	order := ScheduleOrder(s, cur)
	curEval := evaluate(cur, order)
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

	// propose applies one random move to cur in place, logging its writes
	// in undo; false means the move was structurally inadmissible, and
	// the caller rolls back whatever it wrote.
	var undo moveLog
	propose := func() bool {
		d := cur
		switch rng.Intn(4) {
		case 0: // reassign a random existing slot
			slot := randomExisting(rng, d)
			undo.setInt(&d.Proc[slot], rng.Intn(s.Mesh.N()))
		case 1: // flip a random pair's path selection
			b := rng.Intn(s.Mesh.N())
			g := rng.Intn(s.Mesh.N())
			if b == g {
				return false
			}
			undo.setInt(&d.PathSel[b][g], 1-d.PathSel[b][g])
		case 2: // move a random original's level and re-apply rule (4)
			i := rng.Intn(M)
			l := d.Level[i] + 1 - 2*rng.Intn(2)
			if l < 0 || l >= L || s.ExecTime(i, l) > s.exp.Deadline(i) {
				return false
			}
			undo.setInt(&d.Level[i], l)
			ri := s.Reliability(i, l)
			dup := i + M
			if ri >= s.Rel.Rth {
				undo.setExists(&d.Exists[dup], false)
				return true
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
				return false
			}
			if !d.Exists[dup] {
				undo.setExists(&d.Exists[dup], true)
				undo.setInt(&d.Proc[dup], rng.Intn(s.Mesh.N()))
			}
			undo.setInt(&d.Level[dup], found)
		default: // move an existing replica's level under (5) and (8)
			dup := -1
			for attempt := 0; attempt < 4; attempt++ {
				if c := M + rng.Intn(M); d.Exists[c] {
					dup = c
					break
				}
			}
			if dup < 0 {
				return false
			}
			l2 := d.Level[dup] + 1 - 2*rng.Intn(2)
			if l2 < 0 || l2 >= L || s.ExecTime(dup, l2) > s.exp.Deadline(dup) {
				return false
			}
			orig := s.exp.Orig(dup)
			if reliability.Combined(s.Reliability(orig, d.Level[orig]), s.Reliability(dup, l2)) < s.Rel.Rth {
				return false
			}
			undo.setInt(&d.Level[dup], l2)
		}
		return true
	}
	// reject takes back the evaluated move: its start times, then its
	// writes.
	reject := func() {
		w.unstageStart(cur)
		undo.revert()
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
		if !propose() {
			undo.revert()
			continue
		}
		// The schedule order depends on Exists alone.
		candOrder := order
		if undo.changedExists() {
			candOrder = ScheduleOrder(s, cur)
		}
		w.stageStart(cur)
		ce := evaluate(cur, candOrder)
		if !ce.okStruct {
			reject()
			continue
		}
		dE := scalarEnergy(ce) - scalarEnergy(curEval)
		if dE <= 0 || rng.Float64() < math.Exp(-dE/math.Max(temp, 1e-12)) {
			order, curEval = candOrder, ce
			undo.reset()
			if ce.okFull && (!bestEval.okFull || ce.obj < bestEval.obj) {
				best.copyFrom(cur)
				bestEval = ce
			}
			if tr.Enabled() {
				tr.Emit(obs.Event{Kind: obs.AnnealAccept, Node: it, Obj: ce.obj})
			}
		} else {
			reject()
			if tr.Enabled() {
				tr.Emit(obs.Event{Kind: obs.AnnealReject, Node: it})
			}
		}
	}

	m, err := w.metrics(s, best)
	if err != nil {
		return nil, nil, err
	}
	info := &SolveInfo{
		Runtime:   opts.now().Sub(startT),
		Feasible:  bestEval.okFull && w.check(s, best) == nil,
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

// moveLog records the writes of one anneal move — at most three int
// entries (Level, Proc, PathSel) and one Exists entry — so a rejected
// move can be undone.
type moveLog struct {
	ints   [3]intWrite
	n      int
	exists *bool // the Exists entry written, nil if none
	was    bool  // its value before the move
}

// intWrite is one logged int write: where, and the value it replaced.
type intWrite struct {
	p   *int
	old int
}

// setInt writes v to *p and logs the write.
func (l *moveLog) setInt(p *int, v int) {
	l.ints[l.n] = intWrite{p, *p}
	l.n++
	*p = v
}

// setExists writes v to the Exists entry *p and logs the write.
func (l *moveLog) setExists(p *bool, v bool) {
	l.exists, l.was = p, *p
	*p = v
}

// changedExists reports whether the move changed an Exists entry.
func (l *moveLog) changedExists() bool { return l.exists != nil && *l.exists != l.was }

// revert undoes the logged writes, newest first, and empties the log.
func (l *moveLog) revert() {
	for i := l.n - 1; i >= 0; i-- {
		*l.ints[i].p = l.ints[i].old
	}
	if l.exists != nil {
		*l.exists = l.was
	}
	l.reset()
}

// reset empties the log, keeping the writes.
func (l *moveLog) reset() { *l = moveLog{} }

// randomExisting rejection-samples an index of a deployed task. Anneal
// moves keep at least one task deployed, so each draw hits with p ≥ 1/len.
//
//lint:allow ctxloop — probabilistic but guaranteed termination: p ≥ 1/len per draw
func randomExisting(rng *rand.Rand, d *Deployment) int {
	for {
		if i := rng.Intn(len(d.Exists)); d.Exists[i] {
			return i
		}
	}
}
