package lp

import (
	"fmt"
	"math"
	"sync"

	"nocdeploy/internal/numeric"
	"nocdeploy/internal/obs"
)

// varState describes where a column currently sits.
type varState uint8

const (
	atLower varState = iota
	atUpper
	isFree // nonbasic free variable, held at value 0
	inBasis
)

// dualStalled is the internal outcome of a dual-simplex warm start that
// made no progress (cycling or numerical trouble); the caller falls back
// to a cold start, so it never escapes the package.
const dualStalled Status = -1

// simplex carries the working state of one solve. Instances are pooled
// (see simplexPool): every slice is capacity-reused across solves, so a
// branch & bound node solve allocates almost nothing beyond its Solution.
type simplex struct {
	opt Options

	n, m int // structural columns, rows

	// Column-major (CSC) matrix over all columns, laid out
	// structural | slack | artificial in flat pooled storage.
	colStart []int32
	colRow   []int32
	colA     []float64

	lo, hi []float64 // working bounds for all columns
	cost   []float64 // phase-dependent cost for all columns
	rhs    []float64 // row right-hand sides (rows as equalities)

	state []varState
	basis []int     // basis[i] = column basic in row i
	xB    []float64 // values of basic variables

	f basisFactor // sparse LU + eta file replacing the dense inverse

	// Per-iteration work vectors (pooled with the struct).
	y       []float64 // simplex multipliers, row space
	rho     []float64 // dual pivot row BTRAN result, row space
	w       []float64 // FTRAN direction, basis-position space
	cB      []float64 // BTRAN input scratch, basis-position space
	scratch []float64 // zeroed row-space FTRAN scratch
	cnt     []int32   // CSC build cursors
	dualD   []float64 // reduced costs maintained across dual pivots, column space
	dualA   []float64 // pivot-row coefficients α_j = ρ·a_j per dual scan, column space

	iters       int
	dualIters   int
	refactors   int  // mid-solve refactorizations (periodic + stability)
	warm        bool // the current solve runs from Options.WarmBasis
	sincePivot  int  // pivots since last refactorization
	degenStreak int  // consecutive (near-)degenerate pivots, drives Bland switch
	piv         pivoting
}

// Simplex tolerances: a basic variable within feasTol of its bounds is
// feasible, and a column prices in only with a reduced cost past optTol.
const (
	feasTol = 1e-7
	optTol  = 1e-9
)

// pivoting sets how often the simplex refreshes its basis factorization
// (refactor: pivots between refreshes) and after how many consecutive
// degenerate pivots it switches to Bland's rule (blandAfter).
type pivoting struct{ refactor, blandAfter int }

var (
	defaultPivoting = pivoting{refactor: 32, blandAfter: 64}
	// conservativePivoting is the retry after a singular basis: frequent
	// refactorization and early Bland pivoting, slower but far more stable.
	conservativePivoting = pivoting{refactor: 16, blandAfter: 8}
)

var simplexPool = sync.Pool{New: func() interface{} { return new(simplex) }}

// errSingular reports a numerically broken basis; Solve retries once with
// conservative settings before giving up.
var errSingular = fmt.Errorf("lp: basis became singular")

// Solve minimizes the problem. It returns an error only for malformed input
// or an internal numerical breakdown; infeasibility and unboundedness are
// reported through Solution.Status.
func Solve(p *Problem, opt Options) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opt.Presolve && opt.WarmBasis == nil && len(p.Cons) > 0 {
		return solvePresolved(p, opt)
	}
	return solveDirect(p, opt)
}

func solveDirect(p *Problem, opt Options) (*Solution, error) {
	s := simplexPool.Get().(*simplex)
	defer simplexPool.Put(s)
	sol, err := solveOnce(p, opt, defaultPivoting, s)
	if err == errSingular {
		// Numerical breakdown: retry cold under conservative pivoting.
		retry := opt
		retry.WarmBasis = nil
		sol, err = solveOnce(p, retry, conservativePivoting, s)
		if err == errSingular {
			return nil, fmt.Errorf("lp: basis singular even under conservative pivoting")
		}
	}
	if err == nil && opt.Trace.Enabled() {
		if opt.WarmBasis != nil {
			phase := "ok"
			if !sol.Warm {
				phase = "fallback"
			}
			opt.Trace.Emit(obs.Event{
				Kind:  obs.LPWarmStart,
				Iters: sol.DualIters,
				Phase: phase,
			})
		}
		opt.Trace.Emit(obs.Event{
			Kind:    obs.LPSolve,
			Iters:   sol.Iters,
			ItersP1: sol.ItersP1,
			Phase:   sol.Status.String(),
		})
	}
	return sol, err
}

func solveOnce(p *Problem, opt Options, piv pivoting, s *simplex) (*Solution, error) {
	m := len(p.Cons)
	opt = opt.withDefaults(m)

	if m == 0 {
		// Pure box problem: each column sits at its cheapest bound.
		x := make([]float64, p.NumCols)
		for j := 0; j < p.NumCols; j++ {
			switch {
			case p.Cost[j] > 0:
				if math.IsInf(p.Lower[j], -1) {
					return &Solution{Status: Unbounded}, nil
				}
				x[j] = p.Lower[j]
			case p.Cost[j] < 0:
				if math.IsInf(p.Upper[j], 1) {
					return &Solution{Status: Unbounded}, nil
				}
				x[j] = p.Upper[j]
			default:
				switch {
				case !math.IsInf(p.Lower[j], -1):
					x[j] = p.Lower[j]
				case !math.IsInf(p.Upper[j], 1):
					x[j] = p.Upper[j]
				}
			}
		}
		return &Solution{Status: Optimal, X: x, Obj: p.Eval(x)}, nil
	}

	s.init(p, opt, piv)

	// Warm path: install the caller's basis, restore primal feasibility
	// with dual simplex pivots under the real cost, then let the shared
	// primal phase below prove optimality (usually zero extra pivots).
	if wb := opt.WarmBasis; wb != nil && s.installWarm(wb) {
		s.setCost(p.Cost)
		st, err := s.dualIterate()
		switch {
		case err != nil:
			return nil, err
		case st == Infeasible:
			return &Solution{Status: Infeasible, Iters: s.iters, Obj: s.primalInfeasibility(),
				Warm: true, DualIters: s.dualIters, Refactors: s.refactors}, nil
		case st == IterLimit:
			return &Solution{Status: IterLimit, Iters: s.iters,
				Warm: true, DualIters: s.dualIters, Refactors: s.refactors}, nil
		case st == dualStalled:
			s.warm = false // fall back to a cold start below
		}
	}

	p1Iters := 0
	if !s.warm {
		// Cold path. Phase 1: minimize the sum of artificial variables.
		if err := s.crash(); err != nil {
			return nil, err
		}
		for j := range s.cost {
			s.cost[j] = 0
		}
		for j := s.n + s.m; j < len(s.cost); j++ {
			s.cost[j] = 1
		}
		st, err := s.iterate()
		if err != nil {
			return nil, err
		}
		if st == IterLimit {
			return &Solution{Status: IterLimit, Iters: s.iters, ItersP1: s.iters, Refactors: s.refactors}, nil
		}
		p1Iters = s.iters
		if infeas := s.phaseObj(); infeas > 1e-6 {
			// Obj carries the residual infeasibility (sum of artificial
			// values) to help callers distinguish numerical noise from real
			// constraint conflicts.
			return &Solution{Status: Infeasible, Iters: s.iters, ItersP1: p1Iters, Obj: infeas, Refactors: s.refactors}, nil
		}
		// Phase 2: fix artificials at zero and optimize the real cost.
		for j := s.n + s.m; j < len(s.cost); j++ {
			s.lo[j], s.hi[j] = 0, 0
			if s.state[j] != inBasis {
				s.state[j] = atLower
			}
		}
		s.setCost(p.Cost)
	}

	s.degenStreak = 0
	st, err := s.iterate()
	if err != nil {
		return nil, err
	}
	if st == IterLimit {
		return &Solution{Status: IterLimit, Iters: s.iters, ItersP1: p1Iters,
			Warm: s.warm, DualIters: s.dualIters, Refactors: s.refactors}, nil
	}
	if st == Unbounded {
		return &Solution{Status: Unbounded, Iters: s.iters, ItersP1: p1Iters,
			Warm: s.warm, DualIters: s.dualIters, Refactors: s.refactors}, nil
	}

	// Refresh basic values once more for accuracy before extraction.
	if err := s.refactorize(); err != nil {
		return nil, err
	}
	x := make([]float64, p.NumCols)
	for j := 0; j < p.NumCols; j++ {
		x[j] = s.value(j)
	}
	for i, bj := range s.basis {
		if bj < p.NumCols {
			x[bj] = s.xB[i]
		}
	}
	// Clamp tiny bound violations from floating-point drift.
	for j := 0; j < p.NumCols; j++ {
		if x[j] < p.Lower[j] {
			x[j] = p.Lower[j]
		}
		if x[j] > p.Upper[j] {
			x[j] = p.Upper[j]
		}
	}
	sol := &Solution{Status: Optimal, X: x, Obj: p.Eval(x), Iters: s.iters, ItersP1: p1Iters,
		Warm: s.warm, DualIters: s.dualIters, Refactors: s.refactors}
	if opt.WantBasis {
		sol.Basis = s.snapshotBasis()
	}
	return sol, nil
}

// init lays out the CSC matrix (structural | slack | artificial columns),
// bounds and the default nonbasic starting states, reusing pooled storage.
func (s *simplex) init(p *Problem, opt Options, piv pivoting) {
	n, m := p.NumCols, len(p.Cons)
	s.opt, s.piv = opt, piv
	s.n, s.m = n, m
	s.iters, s.dualIters, s.refactors = 0, 0, 0
	s.sincePivot, s.degenStreak = 0, 0
	s.warm = false

	total := n + 2*m
	nnz := 2 * m
	for _, c := range p.Cons {
		nnz += len(c.Idx)
	}
	s.colStart = growI32(s.colStart, total+1)
	s.colRow = growI32(s.colRow, nnz)
	s.colA = growF64(s.colA, nnz)
	s.cnt = growI32(s.cnt, total)
	for j := 0; j < total; j++ {
		s.cnt[j] = 0
	}
	for _, c := range p.Cons {
		for _, j := range c.Idx {
			s.cnt[j]++
		}
	}
	for r := 0; r < m; r++ {
		s.cnt[n+r] = 1
		s.cnt[n+m+r] = 1
	}
	s.colStart[0] = 0
	for j := 0; j < total; j++ {
		s.colStart[j+1] = s.colStart[j] + s.cnt[j]
		s.cnt[j] = s.colStart[j] // becomes the fill cursor
	}
	for r, c := range p.Cons {
		for k, j := range c.Idx {
			q := s.cnt[j]
			s.colRow[q] = int32(r)
			s.colA[q] = c.Val[k]
			s.cnt[j] = q + 1
		}
	}

	s.lo = growF64(s.lo, total)
	s.hi = growF64(s.hi, total)
	s.cost = growF64(s.cost, total)
	s.rhs = growF64(s.rhs, m)
	s.state = growState(s.state, total)
	s.basis = growInt(s.basis, m)
	s.xB = growF64(s.xB, m)
	s.y = growF64(s.y, m)
	s.rho = growF64(s.rho, m)
	s.w = growF64(s.w, m)
	s.cB = growF64(s.cB, m)
	s.scratch = growF64(s.scratch, m)
	s.dualD = growF64(s.dualD, total)
	s.dualA = growF64(s.dualA, total)
	for i := 0; i < m; i++ {
		s.scratch[i] = 0
	}

	copy(s.lo, p.Lower)
	copy(s.hi, p.Upper)
	for r, c := range p.Cons {
		s.rhs[r] = c.RHS
		// Slack column: a·x + s = b with sense-dependent slack bounds.
		sj := n + r
		q := s.colStart[sj]
		s.colRow[q] = int32(r)
		s.colA[q] = 1
		switch c.Op {
		case LE:
			s.lo[sj], s.hi[sj] = 0, math.Inf(1)
		case GE:
			s.lo[sj], s.hi[sj] = math.Inf(-1), 0
		case EQ:
			s.lo[sj], s.hi[sj] = 0, 0
		}
		// Artificial column: unit coefficient, fixed out of play until the
		// cold-start crash decides it is needed (and with which sign).
		aj := n + m + r
		q = s.colStart[aj]
		s.colRow[q] = int32(r)
		s.colA[q] = 1
		s.lo[aj], s.hi[aj] = 0, 0
		s.state[aj] = atLower
	}

	// Nonbasic starting point: nearest finite bound, or 0 for free columns.
	for j := 0; j < n+m; j++ {
		switch {
		case !math.IsInf(s.lo[j], -1):
			s.state[j] = atLower
		case !math.IsInf(s.hi[j], 1):
			s.state[j] = atUpper
		default:
			s.state[j] = isFree
		}
	}
}

// setCost installs the phase-2 objective (structural costs, zeros
// elsewhere).
func (s *simplex) setCost(structural []float64) {
	copy(s.cost[:s.n], structural)
	for j := s.n; j < len(s.cost); j++ {
		s.cost[j] = 0
	}
}

// crash builds the cold-start basis: rows whose residual fits inside the
// slack's bounds get the slack as the basic variable; only violated rows
// need an artificial. This usually leaves phase 1 with little or no work.
func (s *simplex) crash() error {
	n, m := s.n, s.m
	res := s.y // borrow a work vector for the residuals
	copy(res, s.rhs)
	for j := 0; j < n; j++ {
		if v := s.value(j); !numeric.IsZero(v) {
			for q := s.colStart[j]; q < s.colStart[j+1]; q++ {
				res[s.colRow[q]] -= s.colA[q] * v
			}
		}
	}
	for r := 0; r < m; r++ {
		aj := n + m + r
		sj := n + r
		if res[r] >= s.lo[sj]-1e-12 && res[r] <= s.hi[sj]+1e-12 {
			// Slack absorbs the residual; artificial stays fixed at zero.
			s.state[sj] = inBasis
			s.basis[r] = sj
			s.colA[s.colStart[aj]] = 1
			s.lo[aj], s.hi[aj] = 0, 0
			s.state[aj] = atLower
			continue
		}
		// Slack stays nonbasic at the bound nearest the residual; the
		// artificial covers the remaining violation.
		var sv float64
		if res[r] < s.lo[sj] {
			sv = s.lo[sj]
			s.state[sj] = atLower
		} else {
			sv = s.hi[sj]
			s.state[sj] = atUpper
		}
		sign := 1.0
		if res[r]-sv < 0 {
			sign = -1
		}
		s.colA[s.colStart[aj]] = sign
		s.lo[aj], s.hi[aj] = 0, math.Inf(1)
		s.state[aj] = inBasis
		s.basis[r] = aj
	}
	return s.refactorize()
}

// installWarm seeds the solve from a caller-supplied basis snapshot. It
// reports false — leaving the state ready for a cold start — when the
// snapshot has the wrong shape, repeats a column, or factorizes singular.
func (s *simplex) installWarm(b *Basis) bool {
	n, m := s.n, s.m
	if len(b.Basic) != m || len(b.NonBasic) != n+m {
		return false
	}
	for j := 0; j < n+m; j++ {
		st := varState(b.NonBasic[j])
		// Normalize states against the current bounds: branching may have
		// moved a bound since the snapshot, and a nonbasic column must sit
		// at a finite bound (or at zero when genuinely free).
		switch {
		case st == atLower && !math.IsInf(s.lo[j], -1):
		case st == atUpper && !math.IsInf(s.hi[j], 1):
		case !math.IsInf(s.lo[j], -1):
			st = atLower
		case !math.IsInf(s.hi[j], 1):
			st = atUpper
		default:
			st = isFree
		}
		s.state[j] = st
	}
	for i, c := range b.Basic {
		j := int(c)
		if j < 0 || j >= n+m || s.state[j] == inBasis {
			return false
		}
		s.basis[i] = j
		s.state[j] = inBasis
	}
	if err := s.refactorize(); err != nil {
		// Singular snapshot (stale bounds can do this): restore default
		// nonbasic states so the cold-start crash sees a clean slate.
		for j := 0; j < n+m; j++ {
			switch {
			case !math.IsInf(s.lo[j], -1):
				s.state[j] = atLower
			case !math.IsInf(s.hi[j], 1):
				s.state[j] = atUpper
			default:
				s.state[j] = isFree
			}
		}
		return false
	}
	s.warm = true
	return true
}

// snapshotBasis captures the current basis for reuse by a related solve.
// Basic artificials (degenerate at zero) are swapped for their row's slack
// column — same sparsity pattern up to sign, so nonsingularity is
// preserved; if the slack is itself basic elsewhere the snapshot is
// unusable and nil is returned.
func (s *simplex) snapshotBasis() *Basis {
	n, m := s.n, s.m
	b := &Basis{Basic: make([]int32, m), NonBasic: make([]uint8, n+m)}
	for j := 0; j < n+m; j++ {
		b.NonBasic[j] = uint8(s.state[j])
	}
	for i, bj := range s.basis {
		if bj >= n+m {
			sj := n + (bj - n - m)
			if s.state[sj] == inBasis {
				return nil
			}
			b.Basic[i] = int32(sj)
			b.NonBasic[sj] = uint8(inBasis)
			continue
		}
		b.Basic[i] = int32(bj)
	}
	return b
}

// value returns the current value of a nonbasic column.
func (s *simplex) value(j int) float64 {
	switch s.state[j] {
	case atLower:
		return s.lo[j]
	case atUpper:
		return s.hi[j]
	}
	return 0
}

// phaseObj returns the current objective under s.cost.
func (s *simplex) phaseObj() float64 {
	var obj float64
	for j := range s.cost {
		if numeric.IsZero(s.cost[j]) {
			continue
		}
		if s.state[j] == inBasis {
			continue
		}
		obj += s.cost[j] * s.value(j)
	}
	for i, bj := range s.basis {
		obj += s.cost[bj] * s.xB[i]
	}
	return obj
}

// primalInfeasibility sums the bound violations of the basic variables —
// the residual reported with a dual-simplex infeasibility verdict.
func (s *simplex) primalInfeasibility() float64 {
	var sum float64
	for i, bj := range s.basis {
		if d := s.lo[bj] - s.xB[i]; d > 0 {
			sum += d
		}
		if d := s.xB[i] - s.hi[bj]; d > 0 {
			sum += d
		}
	}
	return sum
}

// reducedCost prices column j against the multipliers in s.y.
func (s *simplex) reducedCost(j int) float64 {
	d := s.cost[j]
	for q := s.colStart[j]; q < s.colStart[j+1]; q++ {
		d -= s.y[s.colRow[q]] * s.colA[q]
	}
	return d
}

// ftranColumn computes w = B⁻¹·a_j for matrix column j.
func (s *simplex) ftranColumn(j int) {
	cs, ce := s.colStart[j], s.colStart[j+1]
	s.f.ftran(s.colRow[cs:ce], s.colA[cs:ce], s.w, s.scratch)
}

// multipliers refreshes y = c_Bᵀ·B⁻¹ via BTRAN of the basic costs.
func (s *simplex) multipliers() {
	for i, bj := range s.basis {
		s.cB[i] = s.cost[bj]
	}
	s.f.btran(s.cB, s.y)
}

// iterate runs primal simplex pivots until the current cost is optimal,
// the problem proves unbounded, or the iteration budget runs out.
func (s *simplex) iterate() (Status, error) {
	m := s.m
	total := s.n + 2*m
	for {
		if s.iters >= s.opt.MaxIters {
			return IterLimit, nil
		}
		// Poll for cancellation on a stride: Ctx.Err takes a lock, and a
		// pivot is only O(m + nnz), so checking every iteration would show
		// up.
		if s.opt.Ctx != nil && s.iters%64 == 0 && s.opt.Ctx.Err() != nil {
			return IterLimit, nil
		}
		s.iters++
		bland := s.degenStreak >= s.piv.blandAfter

		s.multipliers()

		// Pricing: find the entering column.
		enter, dir := -1, 1.0
		bestScore := optTol
		for j := 0; j < total; j++ {
			st := s.state[j]
			// Fixed columns compare their bounds exactly: bounds are set, not
			// computed, and the ±Inf pairs must not trip NaN tolerance math.
			if st == inBasis || s.lo[j] == s.hi[j] { //lint:allow floateq — exact fixed-column check over assigned bounds
				continue
			}
			d := s.reducedCost(j)
			var improving bool
			var dj float64
			switch st {
			case atLower:
				improving, dj = d < -optTol, 1
			case atUpper:
				improving, dj = d > optTol, -1
			case isFree:
				improving = math.Abs(d) > optTol
				if d > 0 {
					dj = -1
				} else {
					dj = 1
				}
			}
			if !improving {
				continue
			}
			if bland {
				enter, dir = j, dj
				break
			}
			if score := math.Abs(d); score > bestScore {
				bestScore, enter, dir = score, j, dj
			}
		}
		if enter < 0 {
			return Optimal, nil
		}

		// Direction w = B⁻¹ a_enter.
		s.ftranColumn(enter)
		w := s.w

		// Ratio test: step t moves the entering column by dir·t; basic
		// values change by −dir·t·w.
		const pivotTol = 1e-9
		span := s.hi[enter] - s.lo[enter]
		tMax, leave := span, -1
		leavePivot := 0.0
		for i := 0; i < m; i++ {
			ci := dir * w[i]
			if math.Abs(ci) <= pivotTol {
				continue
			}
			bj := s.basis[i]
			var limit float64
			if ci > 0 {
				if math.IsInf(s.lo[bj], -1) {
					continue
				}
				limit = (s.xB[i] - s.lo[bj]) / ci
			} else {
				if math.IsInf(s.hi[bj], 1) {
					continue
				}
				limit = (s.hi[bj] - s.xB[i]) / (-ci)
			}
			if limit < 0 {
				limit = 0
			}
			better := limit < tMax-1e-12
			if !better && limit < tMax+1e-12 && leave >= 0 {
				// Tie-break for stability: prefer the larger pivot; under
				// Bland, prefer the smallest column index.
				if bland {
					better = bj < s.basis[leave]
				} else {
					better = math.Abs(w[i]) > math.Abs(leavePivot)
				}
			}
			if better {
				tMax, leave, leavePivot = limit, i, w[i]
			}
		}

		if math.IsInf(tMax, 1) {
			return Unbounded, nil
		}

		if leave < 0 {
			// Bound flip: the entering column traverses its whole interval.
			for i := 0; i < m; i++ {
				s.xB[i] -= dir * tMax * w[i]
			}
			if s.state[enter] == atLower {
				s.state[enter] = atUpper
			} else {
				s.state[enter] = atLower
			}
			s.degenStreak = 0
			continue
		}

		// A tiny pivot on an aged factorization is a stability hazard:
		// refresh the factors and redo the iteration rather than divide.
		if math.Abs(leavePivot) < 1e-7 && s.sincePivot > 0 {
			if err := s.refactorizeTracked(); err != nil {
				return Optimal, err
			}
			continue
		}

		if tMax <= 1e-12 {
			s.degenStreak++
		} else {
			s.degenStreak = 0
		}

		// Pivot: enter replaces basis[leave].
		enterVal := s.value(enter) + dir*tMax
		for i := 0; i < m; i++ {
			if i != leave {
				s.xB[i] -= dir * tMax * w[i]
			}
		}
		left := s.basis[leave]
		if dir*w[leave] > 0 {
			s.state[left] = atLower
		} else {
			s.state[left] = atUpper
		}
		if !s.f.update(w, leave) {
			if err := s.refactorizeTracked(); err != nil {
				return Optimal, err
			}
			continue
		}
		s.basis[leave] = enter
		s.state[enter] = inBasis
		s.xB[leave] = enterVal

		s.sincePivot++
		if s.sincePivot >= s.piv.refactor {
			if err := s.refactorizeTracked(); err != nil {
				return Optimal, err
			}
		}
	}
}

// dualIterate restores primal feasibility of a warm-started basis with
// dual simplex pivots: repeatedly expel the most bound-violating basic
// variable, choosing the entering column by the dual ratio test. It
// returns Optimal once primal feasible (the caller then runs the primal
// phase to optimality), Infeasible when a violated row admits no entering
// column — a sound infeasibility certificate regardless of dual
// feasibility — and dualStalled when it stops making progress, in which
// case the caller falls back to a cold start.
func (s *simplex) dualIterate() (Status, error) {
	m := s.m
	total := s.n + 2*m
	budget := m + 100
	if budget > s.opt.MaxIters {
		budget = s.opt.MaxIters
	}
	// Reduced costs are maintained across dual pivots (d_j ← d_j − θ_d·α_j
	// after each basis change) instead of being recomputed from a BTRAN of
	// the basic costs every iteration; they are refreshed from scratch
	// whenever the factorization is rebuilt, which bounds drift to one
	// refactorization interval.
	d := s.dualD
	alpha := s.dualA
	dFresh := false
	for {
		if s.iters >= s.opt.MaxIters {
			return IterLimit, nil
		}
		// Same cancellation contract as the primal loop: poll every 64
		// pivots.
		if s.opt.Ctx != nil && s.iters%64 == 0 && s.opt.Ctx.Err() != nil {
			return IterLimit, nil
		}
		if s.dualIters >= budget {
			return dualStalled, nil
		}

		if !dFresh {
			s.multipliers()
			for j := 0; j < total; j++ {
				if s.state[j] == inBasis {
					d[j] = 0
					continue
				}
				d[j] = s.reducedCost(j)
			}
			dFresh = true
		}

		// Leaving choice: the most violated basic variable.
		leave, viol := -1, feasTol
		needUp := false
		for i := 0; i < m; i++ {
			bj := s.basis[i]
			if v := s.lo[bj] - s.xB[i]; v > viol {
				leave, viol, needUp = i, v, true
			}
			if v := s.xB[i] - s.hi[bj]; v > viol {
				leave, viol, needUp = i, v, false
			}
		}
		if leave < 0 {
			return Optimal, nil // primal feasible
		}
		s.iters++
		s.dualIters++

		// Pivot row ρ = e_leaveᵀ·B⁻¹.
		for i := 0; i < m; i++ {
			s.cB[i] = 0
		}
		s.cB[leave] = 1
		s.f.btran(s.cB, s.rho)

		// Entering choice: among columns that can push the violated basic
		// variable back toward its bound, take the smallest dual ratio
		// |d_j|/|α_j| (ties to the larger pivot) so reduced-cost signs are
		// preserved when the basis is dual feasible.
		enter := -1
		bestRatio, bestAbs := math.Inf(1), 0.0
		for j := 0; j < total; j++ {
			st := s.state[j]
			if st == inBasis || s.lo[j] == s.hi[j] { //lint:allow floateq — exact fixed-column check over assigned bounds
				alpha[j] = 0
				continue
			}
			var a float64
			for q := s.colStart[j]; q < s.colStart[j+1]; q++ {
				a += s.rho[s.colRow[q]] * s.colA[q]
			}
			alpha[j] = a
			if math.Abs(a) <= 1e-9 {
				continue
			}
			// xB[leave] changes by −α_j·δ_j. Raising it (needUp) takes
			// α < 0 for a column moving up off its lower bound, α > 0 for
			// one moving down off its upper bound; lowering it is the
			// mirror image. Free columns can move either way.
			eligible := false
			switch st {
			case atLower:
				eligible = (needUp && a < 0) || (!needUp && a > 0)
			case atUpper:
				eligible = (needUp && a > 0) || (!needUp && a < 0)
			case isFree:
				eligible = true
			}
			if !eligible {
				continue
			}
			ratio := math.Abs(d[j]) / math.Abs(a)
			if ratio < bestRatio-1e-12 || (ratio < bestRatio+1e-12 && math.Abs(a) > bestAbs) {
				bestRatio, bestAbs, enter = ratio, math.Abs(a), j
			}
		}
		if enter < 0 {
			// The violated row is already at the extreme the nonbasic
			// columns allow: primal infeasible.
			return Infeasible, nil
		}

		// Pivot: FTRAN the entering column for the update and step.
		s.ftranColumn(enter)
		w := s.w
		piv := w[leave]
		if math.Abs(piv) <= 1e-9 {
			// ρ and the dense recomputation disagree — the factorization
			// has drifted. Refresh and retry, or give up if already fresh.
			if s.sincePivot > 0 {
				if err := s.refactorizeTracked(); err != nil {
					return Optimal, err
				}
				dFresh = false
				continue
			}
			return dualStalled, nil
		}
		bj := s.basis[leave]
		var target float64
		if needUp {
			target = s.lo[bj]
		} else {
			target = s.hi[bj]
		}
		delta := (s.xB[leave] - target) / piv
		enterVal := s.value(enter) + delta
		if !s.f.update(w, leave) {
			// Abort the pivot before touching any simplex state so the
			// refreshed factorization restarts from a consistent basis.
			if err := s.refactorizeTracked(); err != nil {
				return Optimal, err
			}
			dFresh = false
			continue
		}
		for i := 0; i < m; i++ {
			if i != leave {
				s.xB[i] -= delta * w[i]
			}
		}
		// Dual update: y moves by θ_d·ρ, so every nonbasic reduced cost
		// drops by θ_d·α_j; the leaving variable picks up d = −θ_d (its
		// pivot-row coefficient is exactly 1) and the entering one zeroes.
		thetaD := d[enter] / alpha[enter]
		if thetaD != 0 { //lint:allow floateq — exact guard: a zero dual step leaves every reduced cost untouched
			for j := 0; j < total; j++ {
				if s.state[j] == inBasis || alpha[j] == 0 { //lint:allow floateq — exact guard: α was assigned 0 for skipped columns
					continue
				}
				d[j] -= thetaD * alpha[j]
			}
		}
		if needUp {
			s.state[bj] = atLower
		} else {
			s.state[bj] = atUpper
		}
		s.basis[leave] = enter
		s.state[enter] = inBasis
		s.xB[leave] = enterVal
		d[bj] = -thetaD
		d[enter] = 0

		if math.Abs(delta) <= 1e-12 {
			s.degenStreak++
			if s.degenStreak > 4*s.piv.blandAfter {
				return dualStalled, nil
			}
		} else {
			s.degenStreak = 0
		}
		s.sincePivot++
		if s.sincePivot >= s.piv.refactor {
			if err := s.refactorizeTracked(); err != nil {
				return Optimal, err
			}
			dFresh = false
		}
	}
}

// refactorize rebuilds the sparse factorization from the current basis and
// refreshes the basic variable values xB = B⁻¹(b − N·x_N).
func (s *simplex) refactorize() error {
	ok := s.f.factorize(s.m, func(i int) ([]int32, []float64) {
		j := s.basis[i]
		return s.colRow[s.colStart[j]:s.colStart[j+1]], s.colA[s.colStart[j]:s.colStart[j+1]]
	})
	if !ok {
		return errSingular
	}
	eff := s.cB // borrow: same length m, overwritten by the next BTRAN anyway
	copy(eff, s.rhs)
	for j := range s.cost {
		if s.state[j] == inBasis {
			continue
		}
		if v := s.value(j); !numeric.IsZero(v) {
			for q := s.colStart[j]; q < s.colStart[j+1]; q++ {
				eff[s.colRow[q]] -= s.colA[q] * v
			}
		}
	}
	s.f.ftranDense(eff, s.xB, s.scratch)
	s.sincePivot = 0
	return nil
}

// refactorizeTracked is the mid-solve refactorization path: it counts the
// refresh and reports it to the trace (the initial and final factorization
// of a solve are bookkeeping, not events).
func (s *simplex) refactorizeTracked() error {
	pivots := s.sincePivot
	if err := s.refactorize(); err != nil {
		return err
	}
	s.refactors++
	if s.opt.Trace.Enabled() {
		s.opt.Trace.Emit(obs.Event{Kind: obs.LPRefactor, Iters: pivots})
	}
	return nil
}

func growState(s []varState, n int) []varState {
	if cap(s) < n {
		return make([]varState, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
