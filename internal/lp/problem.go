// Package lp implements a bounded-variable primal simplex solver for linear
// programs
//
//	minimize    cᵀx
//	subject to  aᵢᵀx (≤ | = | ≥) bᵢ   for each row i
//	            lbⱼ ≤ xⱼ ≤ ubⱼ        for each column j
//
// Variable bounds are handled implicitly (nonbasic variables may sit at
// either bound and bound flips are free), which keeps the paper's MILP
// relaxations — dominated by [0,1]-bounded binaries — small. The solver is
// the LP engine underneath package milp's branch & bound, standing in for
// the Gurobi solver used in the paper's evaluation.
//
// The implementation is a two-phase revised simplex over a sparse LU
// factorization of the basis with product-form eta updates per pivot,
// Dantzig pricing with a Bland anti-cycling fallback, periodic
// refactorization for numerical hygiene, an optional presolve/postsolve
// reduction pass, and dual-simplex warm starts from a caller-supplied
// basis snapshot (Options.WarmBasis).
package lp

import (
	"context"
	"fmt"
	"math"

	"nocdeploy/internal/numeric"
	"nocdeploy/internal/obs"
)

// Op is a constraint sense.
type Op int

// Constraint senses.
const (
	LE Op = iota // aᵀx ≤ b
	GE           // aᵀx ≥ b
	EQ           // aᵀx = b
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Constraint is one sparse row aᵀx (op) b.
type Constraint struct {
	Idx []int     // column indices, unique
	Val []float64 // coefficients, aligned with Idx
	Op  Op
	RHS float64
}

// Problem is a linear program in minimization form.
type Problem struct {
	NumCols int
	Cost    []float64 // length NumCols
	Lower   []float64 // length NumCols; -Inf allowed
	Upper   []float64 // length NumCols; +Inf allowed
	Cons    []Constraint
}

// NewProblem returns a problem with n columns, zero costs and [0, +Inf)
// bounds.
func NewProblem(n int) *Problem {
	p := &Problem{
		NumCols: n,
		Cost:    make([]float64, n),
		Lower:   make([]float64, n),
		Upper:   make([]float64, n),
	}
	for j := range p.Upper {
		p.Upper[j] = math.Inf(1)
	}
	return p
}

// SetBounds sets the bounds of column j.
func (p *Problem) SetBounds(j int, lo, hi float64) {
	p.Lower[j] = lo
	p.Upper[j] = hi
}

// AddConstraint appends a sparse row. The index/value slices are retained.
func (p *Problem) AddConstraint(idx []int, val []float64, op Op, rhs float64) {
	p.Cons = append(p.Cons, Constraint{Idx: idx, Val: val, Op: op, RHS: rhs})
}

// Validate checks structural consistency.
func (p *Problem) Validate() error {
	if p.NumCols <= 0 {
		return fmt.Errorf("lp: problem has %d columns", p.NumCols)
	}
	if len(p.Cost) != p.NumCols || len(p.Lower) != p.NumCols || len(p.Upper) != p.NumCols {
		return fmt.Errorf("lp: cost/bound vectors do not match NumCols=%d", p.NumCols)
	}
	for j := 0; j < p.NumCols; j++ {
		if p.Lower[j] > p.Upper[j] {
			return fmt.Errorf("lp: column %d has empty bound interval [%g, %g]", j, p.Lower[j], p.Upper[j])
		}
		if math.IsNaN(p.Lower[j]) || math.IsNaN(p.Upper[j]) || math.IsNaN(p.Cost[j]) {
			return fmt.Errorf("lp: column %d has NaN data", j)
		}
	}
	for r, c := range p.Cons {
		if len(c.Idx) != len(c.Val) {
			return fmt.Errorf("lp: row %d has %d indices but %d values", r, len(c.Idx), len(c.Val))
		}
		seen := map[int]bool{}
		for k, j := range c.Idx {
			if j < 0 || j >= p.NumCols {
				return fmt.Errorf("lp: row %d references column %d (have %d)", r, j, p.NumCols)
			}
			if seen[j] {
				return fmt.Errorf("lp: row %d references column %d twice", r, j)
			}
			seen[j] = true
			if math.IsNaN(c.Val[k]) || math.IsInf(c.Val[k], 0) {
				return fmt.Errorf("lp: row %d has non-finite coefficient for column %d", r, j)
			}
		}
		if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
			return fmt.Errorf("lp: row %d has non-finite rhs", r)
		}
	}
	return nil
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of a solve.
type Solution struct {
	Status  Status
	X       []float64 // length NumCols; valid when Status is Optimal
	Obj     float64   // cᵀx
	Iters   int       // simplex iterations across both phases
	ItersP1 int       // iterations spent in phase 1 (feasibility search)
	// Basis is the optimal basis snapshot, attached only when
	// Options.WantBasis is set, Status is Optimal and the solve ran without
	// presolve (the reduction would change the snapshot's index space).
	// May still be nil in rare degenerate cases; callers must handle nil.
	Basis *Basis
	// Warm reports that the solve was seeded from Options.WarmBasis and
	// the warm start held (false when it fell back to a cold start).
	Warm bool
	// DualIters counts dual simplex pivots spent restoring feasibility of
	// a warm-started basis; included in Iters.
	DualIters int
	// Refactors counts mid-solve basis refactorizations (periodic cadence
	// plus stability-triggered refreshes).
	Refactors int
}

// Basis is a reusable snapshot of a simplex basis over the structural and
// slack columns of a problem. Snapshots taken from one solve
// (Options.WantBasis) can seed another solve of a problem with the same
// shape — identical columns and rows; bounds may differ — via
// Options.WarmBasis. The intended use is branch & bound, where a child
// node differs from its parent only in one variable's bounds.
type Basis struct {
	// Basic holds, per row, the column occupying the basis (structural
	// columns first, then slacks: indices in [0, NumCols+len(Cons))).
	Basic []int32
	// NonBasic records where each nonbasic column sits (internal varState
	// values); entries for basic columns are ignored by the consumer.
	NonBasic []uint8
}

// Options tunes the solver.
type Options struct {
	MaxIters int // total simplex iterations; 0 means a generous default
	// Trace, if non-nil, receives one obs.LPSolve event per Solve call
	// (iteration counts and outcome). Observability only: the solver
	// never reads it, so results are identical with tracing on or off.
	Trace *obs.Trace
	// Ctx, if non-nil, cancels the solve cooperatively: the pivot loop
	// polls it every few dozen iterations and a cancelled solve returns
	// Status IterLimit. Callers that must distinguish cancellation from a
	// genuine iteration limit should inspect Ctx.Err themselves.
	Ctx context.Context
	// WarmBasis, if non-nil, seeds the solve from a previous
	// Solution.Basis of a same-shaped problem. Primal feasibility under
	// the possibly-changed bounds is restored by dual simplex pivots; a
	// stale, singular or stalled basis falls back to a cold start, so the
	// option is always safe. The snapshot is read-only and may be shared
	// across concurrent solves.
	WarmBasis *Basis
	// WantBasis asks Solve to attach Solution.Basis to optimal solutions
	// so the caller can warm-start related solves.
	WantBasis bool
	// Presolve runs a reduction pass (singleton rows to bounds, fixed and
	// unconstrained columns, empty rows, conservative bound tightening)
	// before the simplex and maps the solution back to the original
	// variables. Ignored when WarmBasis is set: the reduction would
	// invalidate the basis' index space.
	Presolve bool
}

func (o Options) withDefaults(m int) Options {
	if o.MaxIters == 0 {
		o.MaxIters = 20000 + 200*m
	}
	return o
}

// Eval returns cᵀx for this problem.
func (p *Problem) Eval(x []float64) float64 {
	var s float64
	for j, c := range p.Cost {
		if !numeric.IsZero(c) {
			s += c * x[j]
		}
	}
	return s
}

// Feasible reports whether x satisfies every bound and row within tol.
func (p *Problem) Feasible(x []float64, tol float64) bool {
	for j := 0; j < p.NumCols; j++ {
		if x[j] < p.Lower[j]-tol || x[j] > p.Upper[j]+tol {
			return false
		}
	}
	for _, c := range p.Cons {
		var a float64
		for k, j := range c.Idx {
			a += c.Val[k] * x[j]
		}
		switch c.Op {
		case LE:
			if a > c.RHS+tol {
				return false
			}
		case GE:
			if a < c.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(a-c.RHS) > tol {
				return false
			}
		}
	}
	return true
}
