package milp

import (
	"container/heap"
	"context"
	"math"
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

// SolveOptions tunes branch & bound.
type SolveOptions struct {
	TimeLimit time.Duration // wall-clock budget; 0 means none
	MaxNodes  int           // node budget; 0 means a generous default
	IntTol    float64       // integrality tolerance; 0 means 1e-6
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
	// Workers is the number of concurrent branch & bound workers. 0 or 1
	// runs the deterministic serial search (hybrid best-bound with
	// plunging); n > 1 runs n workers pulling subproblems from a shared
	// depth-prioritized queue with a shared incumbent. Parallel search
	// returns the same proven optimum (and respects the same limits), but
	// node counts — and, when stopped early by RelGap or a limit, which
	// incumbent is returned — can vary run to run. Negative values select
	// runtime.GOMAXPROCS(0).
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
	if numeric.IsZero(o.IntTol) {
		o.IntTol = 1e-6
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
	// acceptance order (a caller-seeded incumbent appears at T=0). For
	// parallel searches the trajectory depends on scheduling, like the
	// node count.
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
// root plus the parent's LP bound used for best-first ordering and the
// parent's optimal basis (nil at the root) used to warm-start the node's
// own relaxation: a child differs from its parent in one variable's
// bounds, so the dual simplex usually restores optimality in a handful of
// pivots.
type node struct {
	overrides map[int][2]float64
	bound     float64
	depth     int
	basis     *lp.Basis
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

// Solve runs branch & bound on the model. With SolveOptions.Workers > 1
// the search runs on a parallel worker pool (see solveParallel); the
// default is the deterministic serial search.
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
	if w := normalizeWorkers(opts.Workers); w > 1 {
		return m.solveParallel(opts, w)
	}
	return m.solveSerial(opts)
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
		if base.Feasible(opts.Incumbent, 1e-6) && integral(m, opts.Incumbent, opts.IntTol) {
			obj := base.Eval(opts.Incumbent)
			if obj < incumbent {
				incumbent = obj
				res.X = append([]float64(nil), opts.Incumbent...)
				roundIntegers(m, res.X, opts.IntTol)
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

// solveSerial is the deterministic hybrid best-bound/plunging search.
func (m *Model) solveSerial(opts SolveOptions) (*Result, error) {
	base := m.buildLP()
	res := &Result{Bound: math.Inf(-1), Obj: math.Inf(1)}
	tr := opts.Trace
	startT := opts.now()
	deadline := time.Time{}
	if opts.TimeLimit > 0 {
		deadline = startT.Add(opts.TimeLimit)
	}
	incumbent := seedIncumbent(m, base, opts, res)
	if res.X != nil {
		res.Incumbents = append(res.Incumbents, Incumbent{Obj: res.Obj})
		if tr.Enabled() {
			tr.Emit(obs.Event{Kind: obs.BBIncumbent, Obj: res.Obj})
		}
	}

	// Working bound arrays, rewritten per node.
	lo := make([]float64, base.NumCols)
	hi := make([]float64, base.NumCols)

	evalNode := func(nd *node) (*lp.Solution, error) {
		copy(lo, m.lo)
		copy(hi, m.hi)
		for j, b := range nd.overrides {
			lo[j], hi[j] = b[0], b[1]
		}
		base.Lower, base.Upper = lo, hi
		// Warm-start from the parent's basis and snapshot this node's own
		// basis for its children. Determinism holds: the solution is a
		// pure function of the node (overrides + parent basis).
		lpo := opts.LP
		lpo.WantBasis = true
		lpo.WarmBasis = nd.basis
		sol, err := lp.Solve(base, lpo)
		if err != nil {
			return nil, err
		}
		res.Nodes++
		res.Iters += sol.Iters
		if tr.Enabled() {
			e := obs.Event{Kind: obs.BBNode, Node: res.Nodes, Depth: nd.depth}
			if sol.Status == lp.Optimal {
				e.Bound = sol.Obj + m.objConst
			}
			tr.Emit(e)
		}
		return sol, nil
	}

	root := &node{overrides: map[int][2]float64{}}
	rootSol, err := evalNode(root)
	if err != nil {
		return nil, err
	}
	switch rootSol.Status {
	case lp.Infeasible:
		res.Status = Infeasible
		return res, nil
	case lp.Unbounded:
		res.Status = Unbounded
		return res, nil
	case lp.IterLimit:
		res.Status = Limit
		res.Cancelled = opts.Ctx.Err() != nil
		return res, nil
	}
	root.bound = rootSol.Obj

	pq := &nodePQ{}
	heap.Init(pq)
	// Evaluated LP solutions are kept alongside queued nodes so each LP is
	// solved exactly once.
	solutions := map[*node]*lp.Solution{root: rootSol}
	heap.Push(pq, root)

	bestBound := func() float64 {
		if pq.Len() == 0 {
			return incumbent
		}
		return (*pq)[0].bound
	}

	gapReached := func() bool {
		if opts.RelGap <= 0 || math.IsInf(incumbent, 1) {
			return false
		}
		denom := math.Max(math.Abs(incumbent), 1e-12)
		return (incumbent-bestBound())/denom <= opts.RelGap
	}

	// emitGap publishes the convergence state — incumbent, best open
	// bound, relative gap — as one bb.gap event whenever both sides are
	// known: the first-class series live-streaming clients consume.
	// Called at incumbent acceptances and bound improvements, right after
	// the corresponding bb.incumbent / bb.bound event.
	emitGap := func() {
		if !tr.Enabled() || res.X == nil {
			return
		}
		b := bestBound()
		if math.IsInf(b, 0) {
			return
		}
		boundM := b + m.objConst
		tr.Emit(obs.Event{Kind: obs.BBGap, Obj: res.Obj, Bound: boundM, Gap: relGap(res.Obj, boundM), Node: res.Nodes})
	}

	// Hybrid search: nodes are drawn best-bound-first from the queue, but
	// after branching we plunge depth-first into the cheaper child (the
	// other child is queued). Plunging finds integral incumbents early;
	// best-first restarts keep the proven bound moving.
	lastBound := math.Inf(-1)
	for pq.Len() > 0 {
		if res.Nodes >= opts.MaxNodes {
			break
		}
		if !deadline.IsZero() && opts.now().After(deadline) {
			break
		}
		if opts.Ctx.Err() != nil {
			res.Cancelled = true
			break
		}
		if gapReached() {
			break
		}
		if tr.Enabled() {
			if b := bestBound(); !math.IsInf(b, 0) && b > lastBound {
				lastBound = b
				tr.Emit(obs.Event{Kind: obs.BBBound, Bound: b + m.objConst, Node: res.Nodes})
				emitGap()
			}
		}
		nd := heap.Pop(pq).(*node)
		sol := solutions[nd]
		delete(solutions, nd)

		// Plunge from this node until the chain dies out. On a limit or
		// cancellation stop the in-hand node is pushed back so the open
		// frontier — and therefore the reported bound and status — stays
		// exact: an abandoned node must not let an empty queue masquerade
		// as a proven optimum.
		requeue := func() {
			solutions[nd] = sol
			heap.Push(pq, nd)
		}
	plunge:
		for nd != nil {
			if res.Nodes >= opts.MaxNodes {
				requeue()
				break
			}
			if !deadline.IsZero() && opts.now().After(deadline) {
				requeue()
				break
			}
			if opts.Ctx.Err() != nil {
				res.Cancelled = true
				requeue()
				break
			}
			if numeric.GeqTol(sol.Obj, incumbent, 1e-9) {
				if tr.Enabled() {
					tr.Emit(obs.Event{Kind: obs.BBPrune, Node: res.Nodes, Depth: nd.depth})
				}
				break // pruned by bound
			}
			j := m.fractionalVar(sol.X, opts.IntTol)
			if j < 0 {
				// Integral: new incumbent.
				if sol.Obj < incumbent {
					incumbent = sol.Obj
					res.X = append([]float64(nil), sol.X...)
					roundIntegers(m, res.X, opts.IntTol)
					res.Obj = m.Eval(res.X)
					res.Incumbents = append(res.Incumbents, Incumbent{T: opts.now().Sub(startT), Obj: res.Obj, Nodes: res.Nodes})
					if tr.Enabled() {
						tr.Emit(obs.Event{Kind: obs.BBIncumbent, Obj: res.Obj, Node: res.Nodes})
						// The plunge node is consumed (an integral leaf), so
						// the open frontier is exactly the queue: bestBound()
						// is the true global dual bound here.
						emitGap()
					}
				}
				break
			}
			// Branch on x_j ≤ floor and x_j ≥ ceil.
			floorV := math.Floor(sol.X[j])
			var next *node
			var nextSol *lp.Solution
			for side := 0; side < 2; side++ {
				ov := make(map[int][2]float64, len(nd.overrides)+1)
				for k, v := range nd.overrides {
					ov[k] = v
				}
				curLo, curHi := m.lo[j], m.hi[j]
				if b, ok := nd.overrides[j]; ok {
					curLo, curHi = b[0], b[1]
				}
				if side == 0 {
					ov[j] = [2]float64{curLo, floorV}
				} else {
					ov[j] = [2]float64{floorV + 1, curHi}
				}
				if ov[j][0] > ov[j][1] {
					continue
				}
				child := &node{overrides: ov, bound: sol.Obj, depth: nd.depth + 1, basis: sol.Basis}
				csol, err := evalNode(child)
				if err != nil {
					return nil, err
				}
				if csol.Status != lp.Optimal {
					if opts.Ctx.Err() != nil {
						// The child's LP was cut short by cancellation, not
						// proven infeasible. Restore the frontier — the
						// already-evaluated sibling and the parent — so the
						// lost subtree cannot let an empty queue masquerade
						// as a proven optimum, then stop.
						res.Cancelled = true
						if next != nil {
							solutions[next] = nextSol
							heap.Push(pq, next)
						}
						requeue()
						break plunge
					}
					continue // infeasible (or iter-limit: treated as pruned)
				}
				if numeric.GeqTol(csol.Obj, incumbent, 1e-9) {
					if tr.Enabled() {
						tr.Emit(obs.Event{Kind: obs.BBPrune, Node: res.Nodes, Depth: child.depth})
					}
					continue
				}
				child.bound = csol.Obj
				if next == nil || csol.Obj < nextSol.Obj {
					if next != nil {
						solutions[next] = nextSol
						heap.Push(pq, next)
					}
					next, nextSol = child, csol
				} else {
					solutions[child] = csol
					heap.Push(pq, child)
				}
			}
			nd, sol = next, nextSol
		}
	}

	res.Bound = bestBound() + m.objConst
	if res.X != nil {
		if pq.Len() == 0 || numeric.LeqTol(res.Obj-res.Bound, 0, 1e-9*math.Max(1, math.Abs(res.Obj))) {
			res.Status = Optimal
			res.Bound = res.Obj
		} else if opts.RelGap > 0 && res.Gap() <= opts.RelGap {
			res.Status = Optimal
		} else {
			res.Status = Feasible
		}
		return res, nil
	}
	if pq.Len() == 0 {
		// Search exhausted without an incumbent: infeasible (or everything
		// was cut off by the caller's cutoff).
		if opts.CutoffSet {
			res.Status = Limit
		} else {
			res.Status = Infeasible
		}
		return res, nil
	}
	res.Status = Limit
	return res, nil
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
