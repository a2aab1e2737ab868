package core

import (
	"context"
	"math"
	"strconv"

	"nocdeploy/internal/numeric"
	"nocdeploy/internal/obs"
)

// HeuristicWithRepairCtx is an extension beyond the paper: it runs the
// three-phase heuristic and, when the resulting schedule misses the
// horizon (constraint (9)), iteratively raises the V/F level of the
// latest-finishing tasks — re-applying the duplication rule (4), which may
// drop a replica that a faster original no longer needs — and redoes
// phases 2 and 3. This recovers much of the feasibility gap between the
// paper's heuristic and the exact solver (Fig. 2(h)) at negligible cost.
//
// maxRounds bounds the repair iterations; 0 picks 4·M. The context is
// checked once per repair round; a cancelled run returns the current
// best-effort deployment with SolveInfo.Cancelled set.
func HeuristicWithRepairCtx(ctx context.Context, s *System, opts Options, seed int64, maxRounds int) (*Deployment, *SolveInfo, error) {
	startT := opts.now()
	tr := opts.Trace
	if tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.SolveStart, Label: "heuristic+repair"})
	}
	done := func(info *SolveInfo) {
		if tr.Enabled() {
			tr.Emit(obs.Event{Kind: obs.SolveDone, Label: "heuristic+repair", Obj: info.Objective, Phase: feasibilityOutcome(info.Feasible)})
		}
	}
	d, info, err := HeuristicCtx(ctx, s, opts, seed)
	if err != nil {
		return nil, nil, err
	}
	if info.Cancelled {
		return d, cancelledInfo(opts.now().Sub(startT), tr, "heuristic+repair"), nil
	}
	if info.Feasible {
		info.Runtime = opts.now().Sub(startT)
		done(info)
		return d, info, nil
	}
	if maxRounds <= 0 {
		maxRounds = 4 * s.Graph.M()
	}
	L := s.Plat.L()
	M := s.Graph.M()
	feasible := false
	for round := 0; round < maxRounds && !feasible; round++ {
		if ctx.Err() != nil {
			ri := cancelledInfo(opts.now().Sub(startT), tr, "heuristic+repair")
			return d, ri, nil
		}
		// Raise the level of the latest finisher that can still go faster.
		cand := -1
		candEnd := -1.0
		for i := 0; i < s.exp.Size(); i++ {
			if !d.Exists[i] || d.Level[i] >= L-1 {
				continue
			}
			if e := d.End(s, i); e > candEnd {
				cand, candEnd = i, e
			}
		}
		if cand < 0 {
			break // everything is already at the top level
		}
		if tr := opts.Trace; tr.Enabled() {
			tr.Emit(obs.Event{Kind: obs.HeurRepair, Node: round + 1, Label: "slot " + strconv.Itoa(cand)})
		}
		d.Level[cand]++
		// Re-apply the duplication rule for the affected original: a
		// faster original may clear the threshold on its own (h must drop
		// to 0 per rule (4)); a still-unreliable one keeps its replica,
		// whose level must continue to satisfy (5) — raising the original
		// only helps, so no replica change is needed there.
		orig := s.exp.Orig(cand)
		if !s.exp.IsCopy(cand) {
			dup := orig + M
			needs := s.Reliability(orig, d.Level[orig]) < s.Rel.Rth
			if needs && !d.Exists[dup] {
				// Raising a level never reduces reliability, so this can
				// only happen if the task was unreliable all along; keep
				// the replica machinery consistent anyway.
				d.Exists[dup] = true
				d.Level[dup] = L - 1
			}
			if !needs && d.Exists[dup] {
				d.Exists[dup] = false
			}
		}
		ok, _, _, err := deployGivenLevels(ctx, s, d, seed, opts)
		if err != nil {
			return nil, nil, err
		}
		if ctx.Err() != nil {
			ri := cancelledInfo(opts.now().Sub(startT), tr, "heuristic+repair")
			return d, ri, nil
		}
		feasible = ok && CheckConstraints(s, d) == nil
	}
	// The repaired deployment, or the (infeasible) best effort when every
	// round failed.
	m, err := ComputeMetrics(s, d)
	if err != nil {
		return nil, nil, err
	}
	ri := &SolveInfo{Runtime: opts.now().Sub(startT), Feasible: feasible, Objective: m.Objective(opts.Objective)}
	done(ri)
	return d, ri, nil
}

// Improve is an extension beyond the paper: first-improvement local search
// over a feasible deployment. Moves are (a) reassigning one task to a
// different processor and (b) flipping one pair's path selection; a move
// is accepted when the rescheduled deployment stays feasible and the
// objective strictly improves. It returns the improved deployment, its
// objective, and the number of accepted moves. d is not modified: the
// search clones it once and applies each move in place, undoing the
// rejected ones.
func Improve(s *System, d *Deployment, opts Options, maxMoves int) (*Deployment, float64, int) {
	if maxMoves <= 0 {
		maxMoves = 8 * s.Graph.M()
	}
	var w workspace
	best, bestObj := d.Clone(), math.Inf(1)
	if m, err := w.metrics(s, best); err == nil {
		bestObj = m.Objective(opts.Objective)
	}
	accepted := 0
	order := ScheduleOrder(s, best)
	n := s.Mesh.N()
	var used []bool

	for accepted < maxMoves {
		improved := false
	moves:
		for i := 0; i < s.exp.Size(); i++ {
			if !best.Exists[i] {
				continue
			}
			was := best.Proc[i]
			for k := 0; k < n; k++ {
				if k == was {
					continue
				}
				best.Proc[i] = k
				if obj, ok := w.improves(s, best, order, opts, bestObj); ok {
					bestObj = obj
					accepted++
					improved = true
					break moves
				}
				best.Proc[i] = was
			}
		}
		if !improved {
			used = flipPairs(s, best, bestObj, used)
			for b := 0; b < n && !improved; b++ {
				for g := 0; g < n; g++ {
					if !used[b*n+g] {
						continue
					}
					if obj, ok := w.flipImproves(s, best, b, g, order, opts, bestObj); ok {
						bestObj = obj
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

// ImprovePaths is path-flip-only local search: starting from a feasible
// deployment (typically single-path), it greedily flips individual pairs'
// path selections while feasibility holds and the objective improves. By
// construction the result is never worse than the input, which makes it
// the fair per-instance "multi-path vs single-path" comparison. d is not
// modified: the search clones it once and flips paths in place.
func ImprovePaths(s *System, d *Deployment, opts Options) (*Deployment, float64) {
	var w workspace
	best, bestObj := d.Clone(), math.Inf(1)
	if m, err := w.metrics(s, best); err == nil {
		bestObj = m.Objective(opts.Objective)
	}
	order := ScheduleOrder(s, best)
	n := s.Mesh.N()
	// Flips leave the allocation alone, so one set of pairs serves the
	// whole search.
	used := flipPairs(s, best, bestObj, nil)
	for changed := true; changed; {
		changed = false
		for b := 0; b < n; b++ {
			for g := 0; g < n; g++ {
				if !used[b*n+g] {
					continue
				}
				if obj, ok := w.flipImproves(s, best, b, g, order, opts, bestObj); ok {
					bestObj, changed = obj, true
				}
			}
		}
	}
	return best, bestObj
}

// flipPairs marks, in used[β·N+γ], the pairs whose path flip a search
// from d must score. With bestObj the objective of d, these are the pairs
// carrying data (usedPairs): any other flip changes no comm time and no
// energy, so its objective has the bits of bestObj and improves rejects
// it. With no objective yet (d failed the structure check, so bestObj is
// +Inf), every pair is scored.
func flipPairs(s *System, d *Deployment, bestObj float64, used []bool) []bool {
	used = usedPairs(s, d, used)
	if math.IsInf(bestObj, 1) {
		n := s.Mesh.N()
		for i := range used {
			used[i] = i/n != i%n
		}
	}
	return used
}

// flipImproves flips pair (b, g)'s path selection in d and keeps the flip
// when improves accepts it; otherwise it flips back.
func (w *workspace) flipImproves(s *System, d *Deployment, b, g int, order []int, opts Options, bestObj float64) (float64, bool) {
	d.PathSel[b][g] = 1 - d.PathSel[b][g]
	obj, ok := w.improves(s, d, order, opts, bestObj)
	if !ok {
		d.PathSel[b][g] = 1 - d.PathSel[b][g]
	}
	return obj, ok
}

// improves scores the move already written into d: it reschedules d in
// order into the workspace's spare start times and returns the objective
// when d stays feasible and beats bestObj by more than EnergyTol. A
// rejected move gets d's start times back; undoing the move itself is the
// caller's job. Constraints are checked first, so an infeasible move
// costs no metrics pass.
func (w *workspace) improves(s *System, d *Deployment, order []int, opts Options, bestObj float64) (float64, bool) {
	w.stageStart(d)
	w.reschedule(s, d, order)
	if w.check(s, d) == nil {
		if m, err := w.metrics(s, d); err == nil {
			if obj := m.Objective(opts.Objective); numeric.LtTol(obj, bestObj, EnergyTol) {
				return obj, true
			}
		}
	}
	w.unstageStart(d)
	return 0, false
}
