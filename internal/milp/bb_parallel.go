package milp

import (
	"container/heap"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nocdeploy/internal/lp"
	"nocdeploy/internal/numeric"
	"nocdeploy/internal/obs"
)

// normalizeWorkers maps the SolveOptions.Workers convention to a concrete
// worker count: 0 and 1 are the serial search, negative means all cores.
func normalizeWorkers(n int) int {
	if n < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// pnode is one subproblem of the parallel search: bound overrides relative
// to the root plus the parent's LP objective, used both as the node's dual
// bound until its own LP is solved and for queue ordering, and the
// parent's optimal basis for warm-starting (shared read-only between
// siblings, so concurrent workers may consume it simultaneously).
type pnode struct {
	overrides map[int][2]float64
	bound     float64
	depth     int
	basis     *lp.Basis
}

// parPQ is a depth-prioritized queue: deeper nodes first (diving quickly
// toward integral incumbents and keeping the frontier small), ties broken
// best-bound-first so the dive follows the stronger child.
type parPQ []*pnode

func (q parPQ) Len() int { return len(q) }
func (q parPQ) Less(i, j int) bool {
	if q[i].depth != q[j].depth {
		return q[i].depth > q[j].depth
	}
	return q[i].bound < q[j].bound
}
func (q parPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *parPQ) Push(x interface{}) { *q = append(*q, x.(*pnode)) }
func (q *parPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// bbShared is the state the workers coordinate through. The incumbent and
// queue are guarded by mu; the incumbent objective is additionally
// mirrored in incBits so workers can snapshot the pruning bound atomically
// without taking the lock.
type bbShared struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pq      parPQ
	working []float64 // per-worker bound of the node being evaluated; +Inf when idle
	idle    int       // workers blocked waiting for queue items

	nodes, iters int
	incObj       float64 // best integral objective, LP scale
	incBits      atomic.Uint64
	incX         []float64
	incumbents   []Incumbent // acceptance-order trajectory, model scale

	stopped    bool   // a limit fired, the gap closed, or an error occurred
	done       bool   // frontier exhausted: queue empty and every worker idle
	limitStop  bool   // stopped by MaxNodes/TimeLimit/ctx (not by gap or error)
	cancelled  bool   // stopped because SolveOptions.Ctx was cancelled
	rootStatus Status // terminal status decided at the root; rootStatusSet guards it
	rootSet    bool
	err        error
}

// snapshotIncumbent is the lock-free pruning bound.
func (s *bbShared) snapshotIncumbent() float64 {
	return math.Float64frombits(s.incBits.Load())
}

// setIncumbent must be called with mu held.
func (s *bbShared) setIncumbent(v float64) {
	s.incObj = v
	s.incBits.Store(math.Float64bits(v))
}

// bestBound returns the weakest dual bound still open — the minimum over
// queued and in-flight nodes — or the incumbent when the search space is
// exhausted. Must be called with mu held.
func (s *bbShared) bestBound() float64 {
	best := s.incObj
	for _, nd := range s.pq {
		if nd.bound < best {
			best = nd.bound
		}
	}
	for _, b := range s.working {
		if b < best {
			best = b
		}
	}
	return best
}

// solveParallel runs branch & bound with `workers` concurrent workers.
// Each worker repeatedly pulls the deepest open subproblem, solves its LP
// relaxation on worker-local state, and either prunes it, records a new
// incumbent, or pushes its two children. Correctness does not depend on
// scheduling: a node is only ever pruned against a monotonically
// decreasing incumbent, so the proven optimum equals the serial search's.
func (m *Model) solveParallel(opts SolveOptions, workers int) (*Result, error) {
	res := &Result{Bound: math.Inf(-1), Obj: math.Inf(1)}
	seedBase := m.buildLP()
	s := &bbShared{working: make([]float64, workers)}
	s.cond = sync.NewCond(&s.mu)
	for i := range s.working {
		s.working[i] = math.Inf(1)
	}
	s.setIncumbent(seedIncumbent(m, seedBase, opts, res))
	tr := opts.Trace
	if res.X != nil {
		s.incX = append([]float64(nil), res.X...)
		res.Incumbents = append(res.Incumbents, Incumbent{Obj: res.Obj})
		if tr.Enabled() {
			tr.Emit(obs.Event{Kind: obs.BBIncumbent, Obj: res.Obj})
		}
	}

	startT := opts.now()
	deadline := time.Time{}
	if opts.TimeLimit > 0 {
		deadline = startT.Add(opts.TimeLimit)
	}

	gapReached := func() bool { // with mu held
		if opts.RelGap <= 0 || math.IsInf(s.incObj, 1) {
			return false
		}
		denom := math.Max(math.Abs(s.incObj), 1e-12)
		return (s.incObj-s.bestBound())/denom <= opts.RelGap
	}

	s.pq = parPQ{{overrides: map[int][2]float64{}, bound: math.Inf(-1)}}
	heap.Init(&s.pq)

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			// Worker-local LP problem and bound buffers: the model itself
			// is read-only during the search, so workers share it but
			// never share mutable solver state.
			base := m.buildLP()
			lo := make([]float64, base.NumCols)
			hi := make([]float64, base.NumCols)

			for {
				s.mu.Lock()
				for !s.stopped && !s.done && s.pq.Len() == 0 {
					if s.idle == workers-1 {
						// Everyone else is waiting and the queue is empty:
						// no children can ever appear again.
						s.done = true
						s.cond.Broadcast()
						break
					}
					s.idle++
					s.cond.Wait()
					s.idle--
				}
				if s.stopped || s.done {
					s.cond.Broadcast()
					s.mu.Unlock()
					return
				}
				if (!deadline.IsZero() && opts.now().After(deadline)) || s.nodes >= opts.MaxNodes {
					s.stopped, s.limitStop = true, true
					s.cond.Broadcast()
					s.mu.Unlock()
					return
				}
				if opts.Ctx.Err() != nil {
					s.stopped, s.limitStop, s.cancelled = true, true, true
					s.cond.Broadcast()
					s.mu.Unlock()
					return
				}
				if gapReached() {
					s.stopped = true
					s.cond.Broadcast()
					s.mu.Unlock()
					return
				}
				nd := heap.Pop(&s.pq).(*pnode)
				if numeric.GeqTol(nd.bound, s.incObj, 1e-9) {
					// Pruned by an incumbent found after the node was
					// queued. The pop may have emptied the queue, so wake
					// idle siblings to re-check termination.
					s.cond.Broadcast()
					s.mu.Unlock()
					if tr.Enabled() {
						tr.Emit(obs.Event{Kind: obs.BBPrune, Depth: nd.depth, Worker: id + 1})
					}
					continue
				}
				s.working[id] = nd.bound
				s.mu.Unlock()

				// Lock-free re-check against the atomic incumbent mirror:
				// a sibling may have found a better incumbent between the
				// pop and now, sparing this node's LP entirely.
				if numeric.GeqTol(nd.bound, s.snapshotIncumbent(), 1e-9) {
					s.mu.Lock()
					s.working[id] = math.Inf(1)
					s.cond.Broadcast()
					s.mu.Unlock()
					if tr.Enabled() {
						tr.Emit(obs.Event{Kind: obs.BBPrune, Depth: nd.depth, Worker: id + 1})
					}
					continue
				}

				copy(lo, m.lo)
				copy(hi, m.hi)
				for j, b := range nd.overrides {
					lo[j], hi[j] = b[0], b[1]
				}
				base.Lower, base.Upper = lo, hi
				// Warm-start from the parent's basis; the node's LP solution
				// stays a pure function of the node itself (overrides +
				// parent basis), so the proven optimum is schedule-independent.
				lpo := opts.LP
				lpo.WantBasis = true
				lpo.WarmBasis = nd.basis
				sol, err := lp.Solve(base, lpo)

				s.mu.Lock()
				s.working[id] = math.Inf(1)
				if err != nil {
					if s.err == nil {
						s.err = err
					}
					s.stopped = true
					s.cond.Broadcast()
					s.mu.Unlock()
					return
				}
				s.nodes++
				s.iters += sol.Iters
				nodeCount := s.nodes
				if nd.depth == 0 && sol.Status != lp.Optimal {
					// The root relaxation decides a terminal status, as in
					// the serial search.
					switch sol.Status {
					case lp.Infeasible:
						s.rootStatus = Infeasible
					case lp.Unbounded:
						s.rootStatus = Unbounded
					default: // lp.IterLimit
						s.rootStatus = Limit
						s.cancelled = opts.Ctx.Err() != nil
					}
					s.rootSet = true
					s.stopped = true
					s.cond.Broadcast()
					s.mu.Unlock()
					if tr.Enabled() {
						tr.Emit(obs.Event{Kind: obs.BBNode, Node: nodeCount, Depth: nd.depth, Worker: id + 1})
					}
					return
				}
				if sol.Status != lp.Optimal && opts.Ctx.Err() != nil {
					// The node's LP was cut short by cancellation, not proven
					// infeasible: requeue it so the frontier — and with it the
					// reported bound and status — stays exact, and stop.
					heap.Push(&s.pq, nd)
					s.stopped, s.limitStop, s.cancelled = true, true, true
					s.cond.Broadcast()
					s.mu.Unlock()
					return
				}
				gotInc, pruned := false, false
				var incObjModel, gapBoundM, gapRel float64
				if sol.Status == lp.Optimal && !numeric.GeqTol(sol.Obj, s.incObj, 1e-9) {
					if j := m.fractionalVar(sol.X, opts.IntTol); j < 0 {
						// Integral: new incumbent (mutex-guarded, atomic
						// mirror for lock-free pruning snapshots).
						if sol.Obj < s.incObj {
							s.setIncumbent(sol.Obj)
							s.incX = append(s.incX[:0], sol.X...)
							gotInc = true
							incObjModel = sol.Obj + m.objConst
							s.incumbents = append(s.incumbents, Incumbent{T: opts.now().Sub(startT), Obj: incObjModel, Nodes: nodeCount})
							// Snapshot the convergence state under the lock
							// (bestBound walks the queue and in-flight nodes)
							// for the bb.gap event emitted after unlock.
							gapBoundM = s.bestBound() + m.objConst
							gapRel = relGap(incObjModel, gapBoundM)
						}
					} else {
						floorV := math.Floor(sol.X[j])
						curLo, curHi := m.lo[j], m.hi[j]
						if b, ok := nd.overrides[j]; ok {
							curLo, curHi = b[0], b[1]
						}
						for side := 0; side < 2; side++ {
							var b [2]float64
							if side == 0 {
								b = [2]float64{curLo, floorV}
							} else {
								b = [2]float64{floorV + 1, curHi}
							}
							if b[0] > b[1] {
								continue
							}
							ov := make(map[int][2]float64, len(nd.overrides)+1)
							for k, v := range nd.overrides {
								ov[k] = v
							}
							ov[j] = b
							heap.Push(&s.pq, &pnode{overrides: ov, bound: sol.Obj, depth: nd.depth + 1, basis: sol.Basis})
						}
					}
				} else if sol.Status == lp.Optimal {
					pruned = true // dominated by the incumbent after its LP
				}
				s.cond.Broadcast()
				s.mu.Unlock()
				if tr.Enabled() {
					e := obs.Event{Kind: obs.BBNode, Node: nodeCount, Depth: nd.depth, Worker: id + 1}
					if sol.Status == lp.Optimal {
						e.Bound = sol.Obj + m.objConst
					}
					tr.Emit(e)
					if gotInc {
						tr.Emit(obs.Event{Kind: obs.BBIncumbent, Obj: incObjModel, Node: nodeCount, Worker: id + 1})
						tr.Emit(obs.Event{Kind: obs.BBGap, Obj: incObjModel, Bound: gapBoundM, Gap: gapRel, Node: nodeCount, Worker: id + 1})
					}
					if pruned {
						tr.Emit(obs.Event{Kind: obs.BBPrune, Node: nodeCount, Depth: nd.depth, Worker: id + 1})
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if s.err != nil {
		return nil, s.err
	}
	res.Nodes, res.Iters = s.nodes, s.iters
	res.Cancelled = s.cancelled
	res.Incumbents = append(res.Incumbents, s.incumbents...)
	if s.rootSet {
		res.Status = s.rootStatus
		return res, nil
	}
	if !math.IsInf(s.incObj, 1) && s.incX != nil {
		res.X = append([]float64(nil), s.incX...)
		roundIntegers(m, res.X, opts.IntTol)
		res.Obj = m.Eval(res.X)
	}
	exhausted := s.pq.Len() == 0 && !s.limitStop
	res.Bound = s.bestBound() + m.objConst
	if res.X != nil {
		if exhausted || numeric.LeqTol(res.Obj-res.Bound, 0, 1e-9*math.Max(1, math.Abs(res.Obj))) {
			res.Status = Optimal
			res.Bound = res.Obj
		} else if opts.RelGap > 0 && res.Gap() <= opts.RelGap {
			res.Status = Optimal
		} else {
			res.Status = Feasible
		}
		return res, nil
	}
	if exhausted {
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
