package milp

import (
	"container/heap"
	"context"
	"math"
	"runtime"
	"sync"
	"time"

	"nocdeploy/internal/lp"
	"nocdeploy/internal/numeric"
	"nocdeploy/internal/obs"
)

// Status is the outcome of a branch & bound run.
type Status int

// Solve outcomes.
const (
	// Optimal: an integral solution was found and proven optimal
	// (within the gap tolerance).
	Optimal Status = iota
	// Feasible: an integral solution was found but the search stopped
	// early (time or node limit) before proving optimality.
	Feasible
	// Infeasible: the problem has no integral solution.
	Infeasible
	// Unbounded: the relaxation is unbounded.
	Unbounded
	// Limit: the search stopped on a limit with no integral solution found.
	Limit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "limit"
	}
	return "unknown"
}

// intTol is the integrality tolerance: an integer variable within intTol
// of an integer value counts as integral.
const intTol = 1e-6

// SolveOptions tunes branch & bound.
type SolveOptions struct {
	TimeLimit time.Duration // wall-clock budget; 0 means none
	MaxNodes  int           // node budget; 0 means a generous default
	RelGap    float64       // stop when (incumbent−bound)/|incumbent| ≤ RelGap; 0 means prove optimality
	Cutoff    float64       // prune nodes ≥ Cutoff (e.g. a heuristic objective); 0 disables unless CutoffSet
	CutoffSet bool
	// Incumbent, if non-nil, is a full feasible solution vector used as the
	// starting incumbent (typically built with Model.Complete from a
	// heuristic). An infeasible vector is ignored.
	Incumbent []float64
	// Ctx, if non-nil, cancels the search cooperatively: it is checked
	// between LP relaxations (the unit of work), so cancellation latency is
	// one node's LP solve. A cancelled search stops like a limit stop — the
	// best incumbent found so far is returned, Result.Cancelled is set, and
	// Status follows the usual limit semantics (Feasible with an incumbent,
	// Limit without).
	Ctx context.Context
	// Workers is the number of goroutines sharing the one search (hybrid
	// best-bound with plunging); 0 means 1, negative values select
	// runtime.GOMAXPROCS(0). One worker is deterministic. Several workers
	// return the same proven optimum and respect the same limits, but node
	// counts — and, when stopped early by RelGap or a limit, which
	// incumbent is returned — can vary run to run.
	Workers int
	// Trace, if non-nil, receives branch & bound telemetry (obs.BBNode,
	// obs.BBIncumbent, obs.BBBound, obs.BBPrune) and is propagated to the
	// LP engine unless LP.Trace is already set. Observability only: the
	// search never reads it, so the solve is identical with tracing on or
	// off.
	Trace *obs.Trace
	// Clock supplies the time source behind TimeLimit deadlines and the
	// Incumbent.T trajectory stamps. Nil means the wall clock; tests inject
	// a fake clock to exercise deadline logic deterministically.
	Clock obs.Clock
	LP    lp.Options // passed through to the LP engine
}

// now reads the configured clock. This is the MILP engine's only approved
// wall-clock access: everything else in the package must go through it so
// deadline behaviour stays injectable.
//
//lint:fact clockseam
func (o SolveOptions) now() time.Time {
	if o.Clock != nil {
		return o.Clock()
	}
	return time.Now()
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.MaxNodes == 0 {
		o.MaxNodes = 200000
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	return o
}

// Result is the outcome of Solve.
type Result struct {
	Status Status
	X      []float64 // best integral solution; nil if none found
	Obj    float64   // objective of X (model constant included)
	Bound  float64   // best proven lower bound (model constant included)
	Nodes  int       // LP relaxations solved
	Iters  int       // total simplex iterations
	// Cancelled reports that SolveOptions.Ctx was cancelled before the
	// search finished; X still carries the best incumbent found so far.
	Cancelled bool
	// Incumbents is the trajectory of accepted integral solutions in
	// acceptance order (a caller-seeded incumbent appears at T=0). With
	// several workers the trajectory depends on scheduling, like the node
	// count.
	Incumbents []Incumbent
}

// Incumbent records one improvement of the best integral solution.
type Incumbent struct {
	T     time.Duration // since the solve started
	Obj   float64       // model-scale objective (constant included)
	Nodes int           // LP relaxations solved at acceptance time
}

// Gap returns the relative optimality gap of the result, zero when proven
// optimal, +Inf when no incumbent exists.
func (r *Result) Gap() float64 {
	if r.X == nil {
		return math.Inf(1)
	}
	return relGap(r.Obj, r.Bound)
}

// relGap is the shared relative-gap formula: (incumbent − bound)/|incumbent|
// with the denominator floored and the result clamped at zero (open nodes
// whose bounds all exceed the incumbent mean optimality is proven, not a
// negative gap).
func relGap(obj, bound float64) float64 {
	denom := math.Abs(obj)
	if denom < 1e-12 {
		denom = 1e-12
	}
	g := (obj - bound) / denom
	if g < 0 {
		g = 0
	}
	return g
}

// node is one branch & bound subproblem: bound overrides relative to the
// root; a lower bound for best-first ordering (the parent's LP objective
// until the node's own relaxation is solved, then that); the parent's
// optimal basis (nil at the root) used to warm-start the node's own
// relaxation; and the node's solution, nil until solved. A child differs
// from its parent in one variable's bounds, so the dual simplex usually
// restores optimality in a handful of pivots.
type node struct {
	overrides map[int][2]float64
	bound     float64
	depth     int
	basis     *lp.Basis
	sol       *lp.Solution
}

type nodePQ []*node

func (q nodePQ) Len() int            { return len(q) }
func (q nodePQ) Less(i, j int) bool  { return q[i].bound < q[j].bound }
func (q nodePQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodePQ) Push(x interface{}) { *q = append(*q, x.(*node)) }
func (q *nodePQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// child returns the subproblem on one side of the branch on x_j, whose
// value in nd's solution is fractional: x_j ≤ ⌊x_j⌋ for side 0, x_j ≥
// ⌊x_j⌋+1 for side 1. It is nil when that side is empty. The child starts
// unsolved, bounded by nd's objective and warm-started from nd's basis.
func (nd *node) child(m *Model, j, side int) *node {
	lo, hi := m.lo[j], m.hi[j]
	if b, ok := nd.overrides[j]; ok {
		lo, hi = b[0], b[1]
	}
	if floorV := math.Floor(nd.sol.X[j]); side == 0 {
		hi = floorV
	} else {
		lo = floorV + 1
	}
	if lo > hi {
		return nil
	}
	ov := make(map[int][2]float64, len(nd.overrides)+1)
	for k, v := range nd.overrides {
		ov[k] = v
	}
	ov[j] = [2]float64{lo, hi}
	return &node{overrides: ov, bound: nd.bound, depth: nd.depth + 1, basis: nd.sol.Basis}
}

// normalizeWorkers maps the SolveOptions.Workers convention to a worker
// count: 0 is one worker, negative means all cores.
func normalizeWorkers(n int) int {
	if n < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(n, 1)
}

// Solve runs branch & bound on the model: SolveOptions.Workers goroutines
// share one best-bound search with plunging (see search).
func (m *Model) Solve(opts SolveOptions) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if opts.LP.Trace == nil {
		opts.LP.Trace = opts.Trace
	}
	if opts.LP.Ctx == nil {
		// Let cancellation reach into a running relaxation: without this the
		// search only notices the context between LPs, and a single simplex
		// solve on a large model can run for minutes.
		opts.LP.Ctx = opts.Ctx
	}
	s := &search{
		m: m, opts: opts, tr: opts.Trace, workers: normalizeWorkers(opts.Workers),
		res:       &Result{Bound: math.Inf(-1), Obj: math.Inf(1)},
		lastBound: math.Inf(-1),
	}
	s.cond = sync.NewCond(&s.mu)
	s.inHand = make([]float64, s.workers)
	for i := range s.inHand {
		s.inHand[i] = math.Inf(1)
	}
	w0 := s.newWorker(0)
	s.start = opts.now()
	if opts.TimeLimit > 0 {
		s.deadline = s.start.Add(opts.TimeLimit)
	}
	s.incumbent = seedIncumbent(m, w0.base, opts, s.res)
	if s.res.X != nil {
		s.res.Incumbents = append(s.res.Incumbents, Incumbent{Obj: s.res.Obj})
		if s.tr.Enabled() {
			s.tr.Emit(obs.Event{Kind: obs.BBIncumbent, Obj: s.res.Obj})
		}
	}

	root := &node{overrides: map[int][2]float64{}}
	s.mu.Lock()
	rootSol, err := s.solve(w0, root)
	s.unlock(w0)
	if err != nil {
		return nil, err
	}
	switch rootSol.Status {
	case lp.Infeasible:
		s.res.Status = Infeasible
		return s.res, nil
	case lp.Unbounded:
		s.res.Status = Unbounded
		return s.res, nil
	case lp.IterLimit:
		s.res.Status = Limit
		s.res.Cancelled = opts.Ctx.Err() != nil
		return s.res, nil
	}
	root.sol, root.bound = rootSol, rootSol.Obj
	s.pq = nodePQ{root}

	var wg sync.WaitGroup
	wg.Add(s.workers - 1)
	for id := 1; id < s.workers; id++ {
		go func(id int) {
			defer wg.Done()
			s.work(s.newWorker(id))
		}(id)
	}
	s.work(w0)
	wg.Wait()
	if s.err != nil {
		return nil, s.err
	}

	res := s.res
	res.Bound = s.bestBound() + m.objConst
	if res.X != nil {
		if s.pq.Len() == 0 || numeric.LeqTol(res.Obj-res.Bound, 0, 1e-9*math.Max(1, math.Abs(res.Obj))) {
			res.Status = Optimal
			res.Bound = res.Obj
		} else if opts.RelGap > 0 && res.Gap() <= opts.RelGap {
			res.Status = Optimal
		} else {
			res.Status = Feasible
		}
		return res, nil
	}
	if s.pq.Len() == 0 && !opts.CutoffSet {
		// Search exhausted without an incumbent, and no caller cutoff can
		// have pruned the solutions away.
		res.Status = Infeasible
		return res, nil
	}
	res.Status = Limit
	return res, nil
}

// seedIncumbent applies the caller-supplied cutoff and incumbent vector,
// returning the starting incumbent objective in LP scale (without the
// model constant). It fills res.X/res.Obj when the incumbent vector is
// accepted.
func seedIncumbent(m *Model, base *lp.Problem, opts SolveOptions, res *Result) float64 {
	incumbent := math.Inf(1)
	if opts.CutoffSet {
		incumbent = opts.Cutoff
	}
	if opts.Incumbent != nil && len(opts.Incumbent) == base.NumCols {
		if base.Feasible(opts.Incumbent, 1e-6) && integral(m, opts.Incumbent, intTol) {
			obj := base.Eval(opts.Incumbent)
			if obj < incumbent {
				incumbent = obj
				res.X = append([]float64(nil), opts.Incumbent...)
				roundIntegers(m, res.X, intTol)
				res.Obj = m.Eval(res.X)
			}
		}
	}
	return incumbent
}

// fractionalVar returns the branching variable of x — the integer variable
// with the highest branching priority (ties broken by distance from
// integrality) — or -1 if x is integral within tol.
func (m *Model) fractionalVar(x []float64, tol float64) int {
	bestJ, bestPrio, bestScore := -1, math.MinInt32, -1.0
	for j := range m.vtype {
		if m.vtype[j] == Continuous {
			continue
		}
		f := x[j] - math.Floor(x[j])
		if f < tol || f > 1-tol {
			continue
		}
		score := 0.5 - math.Abs(f-0.5) // distance from integrality
		if m.priority[j] > bestPrio || (m.priority[j] == bestPrio && score > bestScore) {
			bestJ, bestPrio, bestScore = j, m.priority[j], score
		}
	}
	return bestJ
}

// search is the state of one branch & bound run, shared by its workers.
// mu guards every field below it; LP relaxations are solved outside it, on
// each worker's own copy of the problem.
type search struct {
	m               *Model
	opts            SolveOptions
	tr              *obs.Trace
	workers         int
	start, deadline time.Time

	mu        sync.Mutex
	cond      *sync.Cond // signalled when a node is queued, broadcast when a worker goes idle or the search stops
	res       *Result    // node and iteration counts, incumbent and trajectory
	pq        nodePQ
	incumbent float64   // best integral objective, LP scale
	inHand    []float64 // bound of the node each worker holds; +Inf when idle
	busy      int       // workers holding a node
	lastBound float64   // last bound published as bb.bound
	stopped   bool      // a limit, the gap, cancellation or an LP error ended the search
	err       error
}

// worker is one goroutine's private state: its LP problem and bound
// buffers, and the events it gathered under the lock.
type worker struct {
	id     int
	base   *lp.Problem
	lo, hi []float64
	events []obs.Event
}

func (s *search) newWorker(id int) *worker {
	base := s.m.buildLP()
	return &worker{id: id, base: base, lo: make([]float64, base.NumCols), hi: make([]float64, base.NumCols)}
}

// event queues e for emission when w releases the lock. With several
// workers it is stamped with w's number.
func (s *search) event(w *worker, e obs.Event) {
	if !s.tr.Enabled() {
		return
	}
	if s.workers > 1 {
		e.Worker = w.id + 1
	}
	w.events = append(w.events, e)
}

// unlock releases mu and emits the events w queued under it, in order.
func (s *search) unlock(w *worker) {
	s.mu.Unlock()
	for _, e := range w.events {
		s.tr.Emit(e)
	}
	w.events = w.events[:0]
}

// work runs one worker: it pops the best open node and plunges from it
// until the frontier is exhausted or the search stops.
func (s *search) work(w *worker) {
	s.mu.Lock()
	for s.next(w) {
		nd := heap.Pop(&s.pq).(*node)
		s.busy++
		if err := s.plunge(w, nd); err != nil && s.err == nil {
			s.err = err
			s.stop()
		}
		s.busy--
		s.inHand[w.id] = math.Inf(1)
		s.cond.Broadcast()
	}
	s.unlock(w)
}

// next waits until a node is open or no worker can open one more, then
// checks the stop conditions in the serial search's order and publishes a
// risen dual bound. It reports whether w should pop a node. With mu held.
func (s *search) next(w *worker) bool {
	for s.pq.Len() == 0 && s.busy > 0 && !s.stopped {
		s.cond.Wait()
	}
	if s.stopped || s.pq.Len() == 0 {
		return false
	}
	if s.limitHit() || s.gapReached() {
		s.stop()
		return false
	}
	if s.tr.Enabled() {
		if b := s.bestBound(); !math.IsInf(b, 0) && b > s.lastBound {
			s.lastBound = b
			s.event(w, obs.Event{Kind: obs.BBBound, Bound: b + s.m.objConst, Node: s.res.Nodes})
			s.gapEvent(w)
		}
	}
	return true
}

// plunge dives from nd as the serial search does: branch on the most
// urgent fractional variable, solve both children, keep the better one in
// hand and queue the other, until the chain dies out. On a stop the node
// in hand is queued again, so the open frontier — and with it the
// reported bound and status — stays exact: an abandoned node must not let
// an empty queue masquerade as a proven optimum.
//
// Handoff: while the queue holds fewer nodes than there are other workers,
// a child is queued unsolved instead, so no worker idles while this one
// solves both children. With one worker the rule never fires, which keeps
// the one-worker search the serial one. Called and returns with mu held.
func (s *search) plunge(w *worker, nd *node) error {
	s.inHand[w.id] = nd.bound
	if nd.sol == nil {
		if numeric.GeqTol(nd.bound, s.incumbent, 1e-9) {
			s.event(w, obs.Event{Kind: obs.BBPrune, Node: s.res.Nodes, Depth: nd.depth})
			return nil
		}
		sol, err := s.solve(w, nd)
		if err != nil {
			return err
		}
		if sol.Status != lp.Optimal {
			if s.cancelled() {
				s.requeue(nd) // cut short, not proven infeasible
			}
			return nil // infeasible (or iter-limit: treated as pruned)
		}
		nd.sol, nd.bound = sol, sol.Obj
	}
	for nd != nil {
		s.inHand[w.id] = nd.bound
		if s.stopped || s.limitHit() {
			s.requeue(nd)
			return nil
		}
		if numeric.GeqTol(nd.bound, s.incumbent, 1e-9) {
			s.event(w, obs.Event{Kind: obs.BBPrune, Node: s.res.Nodes, Depth: nd.depth})
			return nil // pruned by bound
		}
		j := s.m.fractionalVar(nd.sol.X, intTol)
		if j < 0 {
			s.accept(w, nd.sol)
			return nil
		}
		var next *node
		// restore queues the solved sibling and the parent again when the
		// search stops between or inside the children's LPs.
		restore := func() {
			if next != nil {
				s.push(next)
			}
			s.requeue(nd)
		}
		for side := 0; side < 2; side++ {
			child := nd.child(s.m, j, side)
			if child == nil {
				continue
			}
			if s.pq.Len() < s.workers-1 {
				s.push(child)
				continue
			}
			if s.stopped { // by another worker
				restore()
				return nil
			}
			csol, err := s.solve(w, child)
			if err != nil {
				return err
			}
			if csol.Status != lp.Optimal {
				if s.cancelled() {
					restore() // cut short, not proven infeasible
					return nil
				}
				continue // infeasible (or iter-limit: treated as pruned)
			}
			if numeric.GeqTol(csol.Obj, s.incumbent, 1e-9) {
				s.event(w, obs.Event{Kind: obs.BBPrune, Node: s.res.Nodes, Depth: child.depth})
				continue
			}
			child.sol, child.bound = csol, csol.Obj
			if next == nil || child.bound < next.bound {
				next, child = child, next // plunge into the cheaper child
			}
			if child != nil {
				s.push(child)
			}
		}
		nd = next
	}
	return nil
}

// solve solves nd's relaxation on w's own problem with mu released,
// warm-started from the parent's basis, and counts it as a node. The
// solution is a pure function of the node (overrides + parent basis), so
// which worker solves it never changes it. Called and returns with mu held.
func (s *search) solve(w *worker, nd *node) (*lp.Solution, error) {
	s.unlock(w)
	copy(w.lo, s.m.lo)
	copy(w.hi, s.m.hi)
	for j, b := range nd.overrides {
		w.lo[j], w.hi[j] = b[0], b[1]
	}
	w.base.Lower, w.base.Upper = w.lo, w.hi
	lpo := s.opts.LP
	lpo.WantBasis = true
	lpo.WarmBasis = nd.basis
	sol, err := lp.Solve(w.base, lpo)
	s.mu.Lock()
	if err != nil {
		return nil, err
	}
	s.res.Nodes++
	s.res.Iters += sol.Iters
	e := obs.Event{Kind: obs.BBNode, Node: s.res.Nodes, Depth: nd.depth}
	if sol.Status == lp.Optimal {
		e.Bound = sol.Obj + s.m.objConst
	}
	s.event(w, e)
	return sol, nil
}

// accept makes the integral relaxation sol the incumbent if it is better.
func (s *search) accept(w *worker, sol *lp.Solution) {
	if sol.Obj >= s.incumbent {
		return
	}
	res := s.res
	s.incumbent = sol.Obj
	res.X = append([]float64(nil), sol.X...)
	roundIntegers(s.m, res.X, intTol)
	res.Obj = s.m.Eval(res.X)
	res.Incumbents = append(res.Incumbents, Incumbent{T: s.opts.now().Sub(s.start), Obj: res.Obj, Nodes: res.Nodes})
	s.event(w, obs.Event{Kind: obs.BBIncumbent, Obj: res.Obj, Node: res.Nodes})
	// The leaf is consumed, so the open frontier is the queue and the
	// other workers' nodes: bestBound is the true global dual bound here.
	s.inHand[w.id] = math.Inf(1)
	s.gapEvent(w)
}

// push queues nd and wakes a worker waiting for work.
func (s *search) push(nd *node) {
	heap.Push(&s.pq, nd)
	s.cond.Signal()
}

// requeue queues the node in hand again and stops the search.
func (s *search) requeue(nd *node) {
	s.push(nd)
	s.stop()
}

func (s *search) stop() {
	s.stopped = true
	s.cond.Broadcast()
}

// cancelled reports, and records in the result, a cancelled context.
func (s *search) cancelled() bool {
	if s.opts.Ctx.Err() != nil {
		s.res.Cancelled = true
		return true
	}
	return false
}

// limitHit reports whether the node budget, the deadline or the context
// ends the search.
func (s *search) limitHit() bool {
	if s.res.Nodes >= s.opts.MaxNodes || (!s.deadline.IsZero() && s.opts.now().After(s.deadline)) {
		return true
	}
	return s.cancelled()
}

// bestBound is the weakest bound still open, over the queue and the nodes
// workers hold, or the incumbent once nothing is open.
func (s *search) bestBound() float64 {
	b := math.Inf(1)
	if s.pq.Len() > 0 {
		b = s.pq[0].bound
	}
	for _, h := range s.inHand {
		b = math.Min(b, h)
	}
	if math.IsInf(b, 1) {
		return s.incumbent
	}
	return b
}

func (s *search) gapReached() bool {
	if s.opts.RelGap <= 0 || math.IsInf(s.incumbent, 1) {
		return false
	}
	denom := math.Max(math.Abs(s.incumbent), 1e-12)
	return (s.incumbent-s.bestBound())/denom <= s.opts.RelGap
}

// gapEvent publishes the convergence state — incumbent, best open bound,
// relative gap — as one bb.gap event whenever both sides are known: the
// first-class series live-streaming clients consume. It follows every
// incumbent acceptance and bound rise, right after the bb.incumbent or
// bb.bound event.
func (s *search) gapEvent(w *worker) {
	if !s.tr.Enabled() || s.res.X == nil {
		return
	}
	b := s.bestBound()
	if math.IsInf(b, 0) {
		return
	}
	boundM := b + s.m.objConst
	s.event(w, obs.Event{Kind: obs.BBGap, Obj: s.res.Obj, Bound: boundM, Gap: relGap(s.res.Obj, boundM), Node: s.res.Nodes})
}

// integral reports whether every integer variable of x is within tol of an
// integer value.
func integral(m *Model, x []float64, tol float64) bool {
	for j := range m.vtype {
		if m.vtype[j] == Continuous {
			continue
		}
		if f := x[j] - math.Floor(x[j]); f > tol && f < 1-tol {
			return false
		}
	}
	return true
}

// roundIntegers snaps near-integral entries of x exactly.
func roundIntegers(m *Model, x []float64, tol float64) {
	for j := range m.vtype {
		if m.vtype[j] == Continuous {
			continue
		}
		r := math.Round(x[j])
		if math.Abs(x[j]-r) <= 10*tol {
			x[j] = r
		}
	}
}
