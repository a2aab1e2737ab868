// Package core implements the paper's contribution: joint task deployment
// on a NoC-based DVFS multicore — frequency assignment, task duplication,
// routing-path selection, task allocation and task scheduling — minimizing
// the maximum per-processor energy (or, as a baseline, the total energy)
// under real-time and reliability constraints.
//
// Two solvers are provided: the exact MILP formulation of problem P1
// (formulation.go, solved by package milp) and the three-phase
// decomposition heuristic of Algorithms 1–3 (heuristic.go).
package core

import (
	"fmt"
	"math"
	"time"

	"nocdeploy/internal/noc"
	"nocdeploy/internal/obs"
	"nocdeploy/internal/platform"
	"nocdeploy/internal/reliability"
	"nocdeploy/internal/task"
)

// Objective selects the optimization goal.
type Objective int

// Objectives.
const (
	// BalanceEnergy minimizes max_k E_k (the paper's BE scheme).
	BalanceEnergy Objective = iota
	// MinimizeEnergy minimizes Σ_k E_k (the paper's ME baseline).
	MinimizeEnergy
)

func (o Objective) String() string {
	if o == MinimizeEnergy {
		return "ME"
	}
	return "BE"
}

// CommEstimate selects how Algorithm 2 prices communication while paths
// are still unknown.
type CommEstimate int

// Communication-estimate variants for the heuristic's phase 2.
const (
	// EstimatePathAverage prices each placed predecessor edge with the
	// ρ-average over the real candidate paths (zero when co-located) — this
	// repository's default interpretation (see DESIGN.md).
	EstimatePathAverage CommEstimate = iota
	// EstimateConstant uses the paper's literal formula: fixed averages
	// independent of the candidate processor, which makes the allocation
	// communication-blind.
	EstimateConstant
)

// Options selects formulation variants.
type Options struct {
	Objective Objective
	// SinglePath pins every pair's route to the energy-oriented path,
	// the Fig. 2(a) baseline; multi-path selection is the default.
	SinglePath bool
	// CommEstimate selects the phase-2 communication pricing (heuristic
	// only; the exact solver prices communication exactly).
	CommEstimate CommEstimate
	// Trace, if non-nil, receives solver telemetry (solve spans, heuristic
	// phase transitions, anneal accept/reject) and is forwarded to the MILP
	// engine by Optimal. Observability only: the solvers never read it, so
	// results are identical with tracing on or off.
	Trace *obs.Trace
	// Clock supplies the time source behind SolveInfo.Runtime and the
	// per-phase timings, and is forwarded to the MILP engine by Optimal.
	// Nil means the wall clock; tests inject a fake clock to pin phase
	// timings and deadline behaviour deterministically.
	Clock obs.Clock
}

// now reads the configured clock. This is the core package's only
// approved wall-clock access: phase timing and deadline logic must go
// through it so solves stay testable under a fake clock.
//
//lint:fact clockseam
func (o Options) now() time.Time {
	if o.Clock != nil {
		return o.Clock()
	}
	return time.Now()
}

// System bundles one deployment problem instance.
type System struct {
	Plat  *platform.Platform
	Mesh  *noc.Mesh
	Graph *task.Graph
	Rel   reliability.Model
	H     float64 // scheduling horizon (seconds)

	exp *task.Expanded
	r   [][]float64 // r[origTask][level]: reliability table
}

// NewSystem validates and assembles a problem instance. The platform's
// processor count must match the mesh size.
func NewSystem(plat *platform.Platform, mesh *noc.Mesh, g *task.Graph, rel reliability.Model, horizon float64) (*System, error) {
	if err := checkInputs(plat, mesh, g, rel); err != nil {
		return nil, err
	}
	if !(horizon > 0) { // also rejects NaN
		return nil, fmt.Errorf("core: horizon %g must be positive", horizon)
	}
	s := &System{Plat: plat, Mesh: mesh, Graph: g, Rel: rel, H: horizon}
	s.exp = task.Expand(g)
	s.r = make([][]float64, g.M())
	for i := 0; i < g.M(); i++ {
		s.r[i] = make([]float64, plat.L())
		for l := 0; l < plat.L(); l++ {
			s.r[i][l] = rel.TaskReliability(g.Tasks[i].WCEC, plat.Levels[l].Freq)
		}
	}
	return s, nil
}

// checkInputs is the input check NewSystem and Horizon share: the
// platform matches the mesh, and the graph and reliability model are
// valid.
func checkInputs(plat *platform.Platform, mesh *noc.Mesh, g *task.Graph, rel reliability.Model) error {
	if plat.N != mesh.N() {
		return fmt.Errorf("core: platform has %d processors but mesh has %d", plat.N, mesh.N())
	}
	if err := g.Validate(); err != nil {
		return err
	}
	return rel.Validate()
}

// Expanded returns the 2M duplication-expanded task view.
func (s *System) Expanded() *task.Expanded { return s.exp }

// Reliability returns r_il for expanded slot i at level l.
func (s *System) Reliability(slot, l int) float64 {
	return s.r[s.exp.Orig(slot)][l]
}

// ExecTime returns C_i/f_l for expanded slot i.
func (s *System) ExecTime(slot, l int) float64 {
	return s.Plat.ExecTime(s.exp.WCEC(slot), l)
}

// ExecEnergy returns (C_i/f_l)·P_l for expanded slot i.
func (s *System) ExecEnergy(slot, l int) float64 {
	return s.Plat.ExecEnergy(s.exp.WCEC(slot), l)
}

// Horizon returns the paper's experiment horizon
// H = α·Σ_{i∈C}(t_i,ave^comp + t_i,ave^comm) over the critical path C. It
// checks its inputs as NewSystem does.
func Horizon(plat *platform.Platform, mesh *noc.Mesh, g *task.Graph, rel reliability.Model, alpha float64) (float64, error) {
	if err := checkInputs(plat, mesh, g, rel); err != nil {
		return 0, err
	}
	tLo, tHi := mesh.TimeBounds()
	w := make([]float64, g.M())
	for i, t := range g.Tasks {
		// t_i,ave^comp: the midpoint of the fastest and slowest execution
		// time of task i.
		lo, hi := math.Inf(1), 0.0
		for l := 0; l < plat.L(); l++ {
			et := plat.ExecTime(t.WCEC, l)
			if et < lo {
				lo = et
			}
			if et > hi {
				hi = et
			}
		}
		w[i] = (lo + hi) / 2
		// t_i,ave^comm: the inbound payload times the midpoint of the
		// fastest and slowest per-byte path time.
		if preds := g.Pred(i); len(preds) > 0 {
			var bytes float64
			for _, p := range preds {
				bytes += g.Data(p, i)
			}
			w[i] += bytes * (tLo + tHi) / 2
		}
	}
	crit, err := g.CriticalPath(func(i int) float64 { return w[i] })
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, i := range crit {
		sum += w[i]
	}
	return alpha * sum, nil
}

// Deployment is a complete task deployment decision: the paper's variables
// h (Exists), y (Level), x (Proc), t^s (Start) and c (PathSel), over the 2M
// expanded slots.
type Deployment struct {
	Exists []bool // h_i; length 2M, true for all originals
	Level  []int  // V/F level per slot (meaningful where Exists)
	Proc   []int  // processor per slot (meaningful where Exists)
	Start  []float64
	// PathSel[β][γ] is the chosen candidate path index for data β→γ; -1 on
	// the diagonal.
	PathSel [][]int
}

// NewDeployment returns a zeroed deployment sized for the system.
func NewDeployment(s *System) *Deployment {
	n2 := s.exp.Size()
	d := &Deployment{
		Exists: make([]bool, n2),
		Level:  make([]int, n2),
		Proc:   make([]int, n2),
		Start:  make([]float64, n2),
	}
	for i := 0; i < s.Graph.M(); i++ {
		d.Exists[i] = true
	}
	n := s.Mesh.N()
	d.PathSel = make([][]int, n)
	for b := range d.PathSel {
		d.PathSel[b] = make([]int, n)
		for g := range d.PathSel[b] {
			if b == g {
				d.PathSel[b][g] = -1
			}
		}
	}
	return d
}

// Clone deep-copies the deployment, including the path-selection matrix.
func (d *Deployment) Clone() *Deployment {
	c := &Deployment{
		Exists: append([]bool(nil), d.Exists...),
		Level:  append([]int(nil), d.Level...),
		Proc:   append([]int(nil), d.Proc...),
		Start:  append([]float64(nil), d.Start...),
	}
	for _, row := range d.PathSel {
		c.PathSel = append(c.PathSel, append([]int(nil), row...))
	}
	return c
}

// copyFrom overwrites d with src, which has the same shape, reusing d's
// storage.
func (d *Deployment) copyFrom(src *Deployment) {
	copy(d.Exists, src.Exists)
	copy(d.Level, src.Level)
	copy(d.Proc, src.Proc)
	copy(d.Start, src.Start)
	for b, row := range src.PathSel {
		copy(d.PathSel[b], row)
	}
}

// End returns t_i^e = t_i^s + t_i^comp for slot i under the system's
// timing model (zero-length if the slot does not exist).
func (d *Deployment) End(s *System, i int) float64 {
	if !d.Exists[i] {
		return d.Start[i]
	}
	return d.Start[i] + s.ExecTime(i, d.Level[i])
}

// CommTime returns t_i^comm for slot i: the summed time to receive data
// from all existing predecessors over the selected paths.
func (d *Deployment) CommTime(s *System, i int) float64 {
	if !d.Exists[i] {
		return 0
	}
	edges := s.exp.DepEdges()
	gamma := d.Proc[i]
	var t float64
	for _, k := range s.exp.In(i) {
		a := edges[k][0]
		if !d.Exists[a] {
			continue
		}
		beta := d.Proc[a]
		if beta == gamma {
			continue
		}
		t += s.exp.EdgeData(k) * s.Mesh.TimePerByte(beta, gamma, d.PathSel[beta][gamma])
	}
	return t
}

// DupCount returns M_d, the number of duplicated tasks.
func (d *Deployment) DupCount() int {
	n := 0
	for i := len(d.Exists) / 2; i < len(d.Exists); i++ {
		if d.Exists[i] {
			n++
		}
	}
	return n
}
