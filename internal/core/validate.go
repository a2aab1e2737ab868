package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"nocdeploy/internal/noc"
	"nocdeploy/internal/reliability"
)

// Metrics summarizes a deployment's energy, balance and timing figures.
type Metrics struct {
	CompEnergy []float64 // E_k^comp per processor
	CommEnergy []float64 // E_k^comm per processor
	MaxEnergy  float64   // max_k (E_k^comp + E_k^comm), the BE objective
	SumEnergy  float64   // Σ_k, the ME objective
	// Phi is max_k E_k / min_k E_k over processors hosting at least one
	// task — the paper's "E_k ≠ 0" proviso interpreted as excluding
	// processors that only forward traffic, whose router-only energy would
	// otherwise dominate the ratio.
	Phi      float64
	MMax     int     // max tasks on one processor
	Dups     int     // M_d
	Makespan float64 // max_i t_i^e
}

// Energy returns E_k^comp + E_k^comm for processor k.
func (m *Metrics) Energy(k int) float64 { return m.CompEnergy[k] + m.CommEnergy[k] }

// Objective returns the figure o minimizes: MaxEnergy for BE, SumEnergy
// for ME. It is the one rule that turns metrics into an objective value.
func (m *Metrics) Objective(o Objective) float64 {
	if o == MinimizeEnergy {
		return m.SumEnergy
	}
	return m.MaxEnergy
}

// timeTol is the slack allowed when checking timing constraints, absorbing
// floating-point drift from the MILP solver.
const timeTol = 1e-6

// Validate checks a deployment against every constraint of problem P1 and
// returns its metrics. A nil error means the deployment is feasible.
func Validate(s *System, d *Deployment) (*Metrics, error) {
	m, err := ComputeMetrics(s, d)
	if err != nil {
		return nil, err
	}
	if err := CheckConstraints(s, d); err != nil {
		return m, err
	}
	return m, nil
}

// ComputeMetrics computes energy and timing figures without judging
// feasibility (structure is still validated).
func ComputeMetrics(s *System, d *Deployment) (*Metrics, error) {
	var w workspace
	m, err := w.metrics(s, d)
	if err != nil {
		return nil, err
	}
	out := *m
	return &out, nil
}

// workspace holds the buffers of one evaluation: the schedule, the
// constraint check and the metrics. The exported entry points run on a
// fresh workspace; a local search keeps one for its whole run, so scoring
// a candidate move allocates nothing. The metrics it returns live in the
// workspace and are overwritten by the next evaluation.
type workspace struct {
	start    []float64 // spare start times a candidate is scheduled into
	procFree []float64 // the schedule's per-processor finish times
	comm     []float64 // CheckConstraints' per-slot comm times
	ivs      []interval
	perProc  []int // tasks per processor
	m        Metrics
}

// interval is one existing slot's execution window for the (7) check.
type interval struct {
	k, id int
	s, e  float64
}

// zeroed returns buf resized to n and cleared, reusing its storage when
// it is large enough.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// stageStart swaps a copy of d's start times in from the spare slice, so
// a reschedule of d can be taken back by unstageStart.
func (w *workspace) stageStart(d *Deployment) {
	w.start = append(w.start[:0], d.Start...)
	w.unstageStart(d)
}

// unstageStart swaps d's start times with the spare slice.
func (w *workspace) unstageStart(d *Deployment) { d.Start, w.start = w.start, d.Start }

// metrics is ComputeMetrics on the workspace's buffers.
func (w *workspace) metrics(s *System, d *Deployment) (*Metrics, error) {
	if err := checkStructure(s, d); err != nil {
		return nil, err
	}
	n := s.Mesh.N()
	m := &w.m
	*m = Metrics{
		CompEnergy: zeroed(m.CompEnergy, n),
		CommEnergy: zeroed(m.CommEnergy, n),
		Dups:       d.DupCount(),
	}
	w.perProc = zeroed(w.perProc, n)
	perProc := w.perProc
	for i := 0; i < s.exp.Size(); i++ {
		if !d.Exists[i] {
			continue
		}
		m.CompEnergy[d.Proc[i]] += s.ExecEnergy(i, d.Level[i])
		perProc[d.Proc[i]]++
		if e := d.End(s, i); e > m.Makespan {
			m.Makespan = e
		}
	}
	for ei, pair := range s.exp.DepEdges() {
		a, b := pair[0], pair[1]
		if !d.Exists[a] || !d.Exists[b] {
			continue
		}
		beta, gamma := d.Proc[a], d.Proc[b]
		if beta == gamma {
			continue
		}
		bytes := s.exp.EdgeData(ei)
		// e[β][γ][k][ρ] is zero at every router k off the path, and bytes
		// is finite, so only the path's routers change.
		p := s.Mesh.PathOf(beta, gamma, d.PathSel[beta][gamma])
		for i, k := range p.Nodes {
			m.CommEnergy[k] += bytes * p.Energy[i]
		}
	}
	minE, maxLoaded := math.Inf(1), 0.0
	for k := 0; k < n; k++ {
		e := m.Energy(k)
		m.SumEnergy += e
		if e > m.MaxEnergy {
			m.MaxEnergy = e
		}
		if perProc[k] > 0 {
			if e < minE {
				minE = e
			}
			if e > maxLoaded {
				maxLoaded = e
			}
		}
		if perProc[k] > m.MMax {
			m.MMax = perProc[k]
		}
	}
	if !math.IsInf(minE, 1) && minE > 0 {
		m.Phi = maxLoaded / minE
	}
	return m, nil
}

// checkStructure validates index ranges and structural invariants
// (constraints (1), (2), (3) are structural in this representation).
func checkStructure(s *System, d *Deployment) error {
	n2 := s.exp.Size()
	if len(d.Exists) != n2 || len(d.Level) != n2 || len(d.Proc) != n2 || len(d.Start) != n2 {
		return fmt.Errorf("core: deployment sized for %d slots, want %d", len(d.Exists), n2)
	}
	for i := 0; i < s.Graph.M(); i++ {
		if !d.Exists[i] {
			return fmt.Errorf("core: original task %d marked non-existing", i)
		}
	}
	for i := 0; i < n2; i++ {
		if !d.Exists[i] {
			continue
		}
		if d.Proc[i] < 0 || d.Proc[i] >= s.Mesh.N() {
			return fmt.Errorf("core: slot %d allocated to processor %d of %d", i, d.Proc[i], s.Mesh.N())
		}
		if d.Level[i] < 0 || d.Level[i] >= s.Plat.L() {
			return fmt.Errorf("core: slot %d assigned level %d of %d", i, d.Level[i], s.Plat.L())
		}
		if d.Start[i] < -timeTol {
			return fmt.Errorf("core: slot %d starts at %g < 0", i, d.Start[i])
		}
	}
	if len(d.PathSel) != s.Mesh.N() {
		return fmt.Errorf("core: PathSel has %d rows, want %d", len(d.PathSel), s.Mesh.N())
	}
	for b := range d.PathSel {
		for g, rho := range d.PathSel[b] {
			if b == g {
				continue
			}
			if rho < 0 || rho >= noc.NumPaths {
				return fmt.Errorf("core: PathSel[%d][%d] = %d outside [0, %d)", b, g, rho, noc.NumPaths)
			}
		}
	}
	return nil
}

// CheckConstraints verifies constraints (4)–(9) for an existing-structure
// deployment.
func CheckConstraints(s *System, d *Deployment) error {
	return new(workspace).check(s, d)
}

// check is CheckConstraints on the workspace's buffers.
func (w *workspace) check(s *System, d *Deployment) error {
	// (4)+(5): reliability with the duplication rule.
	for i := 0; i < s.Graph.M(); i++ {
		ri := s.Reliability(i, d.Level[i])
		dup := i + s.Graph.M()
		if d.Exists[dup] {
			if c := reliability.Combined(ri, s.Reliability(dup, d.Level[dup])); c < s.Rel.Rth-1e-12 {
				return fmt.Errorf("core: task %d duplicated but combined reliability %.8f < Rth %.8f", i, c, s.Rel.Rth)
			}
		} else if ri < s.Rel.Rth-1e-12 {
			return fmt.Errorf("core: task %d reliability %.8f < Rth %.8f without duplication", i, ri, s.Rel.Rth)
		}
	}
	// (8): per-task execution time within its relative deadline.
	for i := 0; i < s.exp.Size(); i++ {
		if !d.Exists[i] {
			continue
		}
		if tc := s.ExecTime(i, d.Level[i]); tc > s.exp.Deadline(i)+timeTol {
			return fmt.Errorf("core: slot %d execution time %g exceeds deadline %g", i, tc, s.exp.Deadline(i))
		}
	}
	// (9): everything finishes within the horizon.
	for i := 0; i < s.exp.Size(); i++ {
		if !d.Exists[i] {
			continue
		}
		if e := d.End(s, i); e > s.H+timeTol {
			return fmt.Errorf("core: slot %d ends at %g beyond horizon %g", i, e, s.H)
		}
	}
	// (6): precedence with communication, reported in DepEdges order.
	w.comm = zeroed(w.comm, s.exp.Size())
	comm := w.comm
	for i := range comm {
		comm[i] = d.CommTime(s, i)
	}
	for _, pair := range s.exp.DepEdges() {
		a, b := pair[0], pair[1]
		if !d.Exists[a] || !d.Exists[b] {
			continue
		}
		need := d.End(s, a) + comm[b]
		if d.Start[b]+timeTol < need {
			return fmt.Errorf("core: slot %d starts at %g before predecessor %d finishes + comm (%g)",
				b, d.Start[b], a, need)
		}
	}
	// (7): tasks on the same processor must not overlap. One sort by
	// (processor, start, slot) puts each processor's tasks side by side,
	// so the first overlap reported is on the lowest-numbered processor.
	ivs := slices.Grow(w.ivs[:0], s.exp.Size())
	for i := 0; i < s.exp.Size(); i++ {
		if d.Exists[i] {
			ivs = append(ivs, interval{d.Proc[i], i, d.Start[i], d.End(s, i)})
		}
	}
	w.ivs = ivs
	slices.SortFunc(ivs, func(a, b interval) int {
		if a.k != b.k {
			return cmp.Compare(a.k, b.k)
		}
		if a.s != b.s { //lint:allow floateq — deterministic sort key; a tolerance would break transitivity
			return cmp.Compare(a.s, b.s)
		}
		return cmp.Compare(a.id, b.id)
	})
	for i := 1; i < len(ivs); i++ {
		prev, cur := ivs[i-1], ivs[i]
		if cur.k == prev.k && cur.s+timeTol < prev.e {
			return fmt.Errorf("core: slots %d and %d overlap on processor %d ([%g,%g] vs [%g,%g])",
				prev.id, cur.id, cur.k, prev.s, prev.e, cur.s, cur.e)
		}
	}
	return nil
}
