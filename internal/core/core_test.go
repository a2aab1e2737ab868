package core

import (
	"math"
	"reflect"
	"testing"

	"nocdeploy/internal/noc"
	"nocdeploy/internal/platform"
	"nocdeploy/internal/reliability"
	"nocdeploy/internal/task"
	"nocdeploy/internal/taskgen"
)

// mediumSystem is a 4×4-mesh instance with a layered random DAG, sized like
// the paper's heuristic runs.
func mediumSystem(t testing.TB, m int, seed int64) *System {
	t.Helper()
	plat := platform.Default(16)
	mesh := noc.Default(4, 4)
	g, err := taskgen.Layered(taskgen.DefaultParams(m, seed), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	rel := reliability.Default(plat.Fmin(), plat.Fmax())
	h, err := Horizon(plat, mesh, g, rel, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(plat, mesh, g, rel, h)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyLevels is a 2-level table for brute-force-checkable instances.
func tinyLevels() []platform.VFLevel {
	return []platform.VFLevel{
		{Voltage: 0.85, Freq: 0.5e9},
		{Voltage: 1.10, Freq: 1.0e9},
	}
}

// tinySystem: M tasks in a chain, 2×1 mesh, 2 levels, cycles big enough
// that the slow level violates the reliability threshold (forcing the
// duplication machinery to engage).
func tinySystem(t *testing.T, m int, horizon float64) *System {
	t.Helper()
	plat, err := platform.New(2, tinyLevels(), platform.DefaultPowerParams())
	if err != nil {
		t.Fatal(err)
	}
	mesh := noc.Default(2, 1)
	g := task.New()
	for i := 0; i < m; i++ {
		g.AddTask("", 5e8, 2.0)
	}
	for i := 0; i+1 < m; i++ {
		g.AddEdge(i, i+1, 32<<10)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	rel := reliability.Default(plat.Fmin(), plat.Fmax())
	s, err := NewSystem(plat, mesh, g, rel, horizon)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHeuristicFeasibleAndValid(t *testing.T) {
	s := mediumSystem(t, 12, 3)
	d, info, err := Heuristic(s, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Feasible {
		t.Fatal("heuristic reported infeasible on a loose-horizon instance")
	}
	m, err := Validate(s, d)
	if err != nil {
		t.Fatalf("validation failed: %v", err)
	}
	if m.MaxEnergy <= 0 || m.SumEnergy < m.MaxEnergy {
		t.Errorf("suspicious energies: max %g sum %g", m.MaxEnergy, m.SumEnergy)
	}
	if math.Abs(info.Objective-m.MaxEnergy) > 1e-12 {
		t.Errorf("info objective %g != metrics max %g", info.Objective, m.MaxEnergy)
	}
}

func TestHeuristicDeterministic(t *testing.T) {
	s := mediumSystem(t, 10, 5)
	d1, _, err := Heuristic(s, Options{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := Heuristic(s, Options{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Error("same seed produced different deployments")
	}
}

// Phase 3 starts from the single-path default and only improves, so
// multi-path can never be worse than the single-path baseline.
func TestHeuristicMultiPathNeverWorse(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		s := mediumSystem(t, 14, seed)
		_, multi, err := Heuristic(s, Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, single, err := Heuristic(s, Options{SinglePath: true}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if multi.Objective > single.Objective+1e-12 {
			t.Errorf("seed %d: multi-path %g worse than single-path %g",
				seed, multi.Objective, single.Objective)
		}
	}
}

func TestPhase1DuplicationRegimes(t *testing.T) {
	s := tinySystem(t, 2, 100)
	// A threshold below even the slowest level's reliability: no duplicates.
	low := s.Rel
	low.Rth = 0.3
	sLow, err := NewSystem(s.Plat, s.Mesh, s.Graph, low, s.H)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := Heuristic(sLow, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.DupCount() != 0 {
		t.Errorf("Rth=0.3: %d duplicates, want 0", d.DupCount())
	}

	high := s.Rel
	high.Rth = 0.99999999
	sHigh, err := NewSystem(s.Plat, s.Mesh, s.Graph, high, s.H)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err = Heuristic(sHigh, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.DupCount() == 0 {
		t.Error("Rth≈1: no duplicates created")
	}
	if err := CheckConstraints(sHigh, d); err != nil {
		t.Errorf("duplicated deployment invalid: %v", err)
	}
}

func TestValidatorCatchesViolations(t *testing.T) {
	s := tinySystem(t, 2, 100)
	d, info, err := Heuristic(s, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Feasible {
		t.Fatal("expected feasible base deployment")
	}

	// Overlap violation: co-locate both originals at the same start time.
	bad := cloneDeployment(d)
	bad.Proc[0], bad.Proc[1] = 0, 0
	bad.Start[0], bad.Start[1] = 0, 0
	if err := CheckConstraints(s, bad); err == nil {
		t.Error("overlap not caught")
	}

	// Horizon violation.
	bad = cloneDeployment(d)
	bad.Start[1] = s.H + 1
	if err := CheckConstraints(s, bad); err == nil {
		t.Error("horizon violation not caught")
	}

	// Precedence violation: successor starts before predecessor ends.
	bad = cloneDeployment(d)
	bad.Start[1] = 0
	bad.Start[0] = 0
	bad.Proc[0], bad.Proc[1] = 0, 1
	if err := CheckConstraints(s, bad); err == nil {
		t.Error("precedence violation not caught")
	}

	// Reliability violation: drop a duplicate that was needed.
	if d.DupCount() > 0 {
		bad = cloneDeployment(d)
		for i := s.Graph.M(); i < s.Expanded().Size(); i++ {
			bad.Exists[i] = false
		}
		if err := CheckConstraints(s, bad); err == nil {
			t.Error("reliability violation not caught")
		}
	}

	// Structural violation: bad processor index.
	bad = cloneDeployment(d)
	bad.Proc[0] = 99
	if _, err := ComputeMetrics(s, bad); err == nil {
		t.Error("bad processor index not caught")
	}
}

// TestOverlapReportedOnLowestProcessor: with overlaps on every processor,
// CheckConstraints reports the first overlap on the lowest-numbered one,
// on every run.
func TestOverlapReportedOnLowestProcessor(t *testing.T) {
	plat, err := platform.New(4, tinyLevels(), platform.DefaultPowerParams())
	if err != nil {
		t.Fatal(err)
	}
	g := task.New()
	for i := 0; i < 8; i++ {
		g.AddTask("", 5e8, 2.0) // 0.5 s at the fast level
	}
	rel := reliability.Default(plat.Fmin(), plat.Fmax())
	s, err := NewSystem(plat, noc.Default(2, 2), g, rel, 100)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDeployment(s)
	for i := 0; i < 8; i++ {
		// Processor k runs slots 2k and 2k+1, the second from 0.25 s.
		d.Level[i], d.Proc[i], d.Start[i] = 1, i/2, 0.25*float64(i%2)
	}
	want := "core: slots 0 and 1 overlap on processor 0 ([0,0.5] vs [0.25,0.75])"
	if err := CheckConstraints(s, d); err == nil || err.Error() != want {
		t.Errorf("CheckConstraints = %v, want %q", err, want)
	}
}

// TestNewSystemRejectsBadHorizon: the horizon must be a positive number;
// NaN passes a plain "<= 0" check, so it is named here.
func TestNewSystemRejectsBadHorizon(t *testing.T) {
	s := tinySystem(t, 2, 100)
	for _, h := range []float64{0, -1, math.NaN()} {
		if _, err := NewSystem(s.Plat, s.Mesh, s.Graph, s.Rel, h); err == nil {
			t.Errorf("horizon %g accepted", h)
		}
	}
}

func cloneDeployment(d *Deployment) *Deployment {
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

func TestHorizonScalesWithAlpha(t *testing.T) {
	plat := platform.Default(4)
	mesh := noc.Default(2, 2)
	g, err := taskgen.Layered(taskgen.DefaultParams(8, 1), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	rel := reliability.Default(plat.Fmin(), plat.Fmax())
	h1, err := Horizon(plat, mesh, g, rel, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Horizon(plat, mesh, g, rel, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if h1 <= 0 || math.Abs(h2-2*h1) > 1e-12*h1 {
		t.Errorf("horizon not linear in alpha: %g vs %g", h1, h2)
	}
}

func TestMetricsSingleTask(t *testing.T) {
	plat := platform.Default(4)
	mesh := noc.Default(2, 2)
	g := task.New()
	g.AddTask("only", 1e6, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	rel := reliability.Default(plat.Fmin(), plat.Fmax())
	s, err := NewSystem(plat, mesh, g, rel, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDeployment(s)
	d.Level[0] = 2
	d.Proc[0] = 3
	for b := range d.PathSel {
		for gg := range d.PathSel[b] {
			if b != gg {
				d.PathSel[b][gg] = 0
			}
		}
	}
	m, err := ComputeMetrics(s, d)
	if err != nil {
		t.Fatal(err)
	}
	want := s.ExecEnergy(0, 2)
	if math.Abs(m.CompEnergy[3]-want) > 1e-15 {
		t.Errorf("comp energy %g, want %g", m.CompEnergy[3], want)
	}
	if m.SumEnergy != m.MaxEnergy || m.MMax != 1 || m.Dups != 0 {
		t.Errorf("metrics: %+v", m)
	}
	if m.CommEnergy[3] != 0 {
		t.Errorf("no edges but comm energy %g", m.CommEnergy[3])
	}
}
