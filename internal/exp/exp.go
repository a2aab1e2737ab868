// Package exp regenerates the paper's evaluation (Fig. 2(a)–(h)) as tables.
// Each RunFig2x function sweeps the same parameter the paper sweeps and
// prints the same series the paper plots.
//
// Scale substitution (see DESIGN.md): the paper solves the exact MILP with
// Gurobi at N = 16, M = 20, L = 6. Our pure-Go branch & bound replaces
// Gurobi, so "optimal" sweeps run on a 2×2 mesh with M ≤ 6 and reduced
// level counts, under explicit time limits; heuristic sweeps run at the
// paper's full scale. Trends, not absolute numbers, are the reproduction
// target.
package exp

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"nocdeploy/internal/core"
	"nocdeploy/internal/noc"
	"nocdeploy/internal/numeric"
	"nocdeploy/internal/obs"
	"nocdeploy/internal/platform"
	"nocdeploy/internal/reliability"
	"nocdeploy/internal/runner"
	"nocdeploy/internal/solve"
	"nocdeploy/internal/taskgen"
)

// Config controls experiment scale.
type Config struct {
	Seed int64
	// Quick reduces repetitions and time limits so the full suite runs in
	// benchmark time; the defaults reproduce the figures more faithfully.
	Quick bool
	// TimeLimit bounds each exact solve when MaxNodes is 0; 0 picks a
	// mode-dependent default. It also caps the portfolio runner's solves
	// and sets Fig. 2(f)'s cap note and censoring, whatever MaxNodes is.
	TimeLimit time.Duration
	// MaxNodes, if positive, bounds each exact solve by branch & bound
	// node count alone: the solves ignore TimeLimit, so solver termination
	// — and therefore every table cell except measured runtimes — is
	// deterministic, which is what the determinism tests use. 0 keeps the
	// solver default node budget and stops on TimeLimit.
	MaxNodes int
	// Parallel is the number of instance evaluations each runner fans out
	// concurrently: 0 means runtime.GOMAXPROCS(0), 1 is serial. Tables are
	// byte-identical for every value (see DESIGN.md, "Determinism
	// contract"); negative values are rejected by Validate.
	Parallel int
	// Trace, if non-nil, receives pool telemetry from the instance grid and
	// solver telemetry from the warm-started exact solves. Tracing never
	// changes a table cell — the determinism contract holds with tracing on
	// or off (see TestDeterminismTracingInvariance).
	Trace *obs.Trace
}

// Validate checks the configuration. It is the single validation point for
// Config: every runner goes through it (via evalGrid) before any instance
// is built.
func (c Config) Validate() error {
	if c.Parallel < 0 {
		return fmt.Errorf("exp: Parallel must be ≥ 0 (0 = GOMAXPROCS), got %d", c.Parallel)
	}
	if c.MaxNodes < 0 {
		return fmt.Errorf("exp: MaxNodes must be ≥ 0, got %d", c.MaxNodes)
	}
	if c.TimeLimit < 0 {
		return fmt.Errorf("exp: TimeLimit must be ≥ 0, got %v", c.TimeLimit)
	}
	return nil
}

// instanceSeed derives the RNG seed of the (point, trial) grid cell. The
// derivation is a pure function of (Seed, point, trial) — never of
// evaluation order — so results are independent of worker scheduling.
// Points deliberately share trial seeds (the point index does not enter):
// every sweep value sees the same task graphs, making each figure a paired
// comparison across its x-axis exactly as in the serial implementation.
func (c Config) instanceSeed(point, trial int) int64 {
	_ = point
	return c.Seed + int64(trial)
}

// evalGrid evaluates eval for every cell of a points×trials instance grid
// through the worker pool and returns cells[point][trial] in grid order.
// eval must be a pure function of its indices (plus the Config); it runs
// concurrently with other cells when cfg.Parallel ≠ 1.
func evalGrid[R any](cfg Config, points, trials int, eval func(point, trial int) (R, error)) ([][]R, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	flat, err := runner.MapTraced(context.Background(), cfg.Parallel, points*trials, cfg.Trace,
		func(_ context.Context, i int) (R, error) {
			return eval(i/trials, i%trials)
		})
	if err != nil {
		return nil, err
	}
	cells := make([][]R, points)
	for p := range cells {
		cells[p] = flat[p*trials : (p+1)*trials]
	}
	return cells, nil
}

func (c Config) reps(full int) int {
	if c.Quick {
		if full > 3 {
			return 3
		}
		return full
	}
	return full
}

func (c Config) timeLimit() time.Duration {
	if c.TimeLimit > 0 {
		return c.TimeLimit
	}
	if c.Quick {
		return 5 * time.Second
	}
	return 45 * time.Second
}

// exactTimeLimit is the wall-clock budget of an exact solve: none under a
// node budget, so the budget alone decides where the solve stops.
func (c Config) exactTimeLimit() time.Duration {
	if c.MaxNodes > 0 {
		return 0
	}
	return c.timeLimit()
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "  (%s)\n", t.Note)
	}
	width := make([]int, len(t.Header))
	for i, h := range t.Header {
		width[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", width[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// CSV renders the table as RFC-4180-ish CSV (quotes only where needed),
// for feeding plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	row(t.Header)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

// InstanceParams describes one generated problem instance.
type InstanceParams struct {
	MeshW, MeshH int
	M            int
	L            int     // number of V/F levels (prefix of the default table)
	Alpha        float64 // horizon scale
	Seed         int64
	MuScale      float64 // communication-energy multiplier (Fig. 2(b)); 0 = 1
	Gamma        float64 // voltage stretch driving ε (Fig. 2(c)); 0 = 1
	BytesScale   float64 // payload multiplier for comm-heavy sweeps; 0 = 1
	WCECScale    float64 // cycle-count multiplier for reliability-critical sweeps; 0 = 1
}

// smallOptimal are the instance dimensions used for exact sweeps.
func smallOptimal(m int, alpha float64, seed int64) InstanceParams {
	return InstanceParams{MeshW: 2, MeshH: 2, M: m, L: 3, Alpha: alpha, Seed: seed}
}

// paperScale are the paper's heuristic-scale dimensions (4×4, L = 6).
func paperScale(m int, alpha float64, seed int64) InstanceParams {
	return InstanceParams{MeshW: 4, MeshH: 4, M: m, L: 6, Alpha: alpha, Seed: seed}
}

// Build generates the system for the given parameters.
func Build(p InstanceParams) (*core.System, error) {
	levels := platform.DefaultLevels()
	if p.Gamma > 0 && !numeric.Eq(p.Gamma, 1) {
		levels = platform.ScaledLevels(levels, p.Gamma)
	}
	if p.L > 0 && p.L < len(levels) {
		// Keep the extremes so the frequency range (and thus the
		// reliability model) is unchanged; drop interior levels.
		kept := []platform.VFLevel{levels[0]}
		for i := 1; i < p.L-1; i++ {
			kept = append(kept, levels[i*len(levels)/p.L])
		}
		kept = append(kept, levels[len(levels)-1])
		levels = kept
	}
	plat, err := platform.New(p.MeshW*p.MeshH, levels, platform.DefaultPowerParams())
	if err != nil {
		return nil, err
	}
	mesh := noc.Default(p.MeshW, p.MeshH)
	if p.MuScale > 0 && !numeric.Eq(p.MuScale, 1) {
		mesh.ScaleEnergy(p.MuScale)
	}
	gp := taskgen.DefaultParams(p.M, p.Seed)
	if p.BytesScale > 0 && !numeric.Eq(p.BytesScale, 1) {
		gp.MinBytes *= p.BytesScale
		gp.MaxBytes *= p.BytesScale
	}
	if p.WCECScale > 0 && !numeric.Eq(p.WCECScale, 1) {
		gp.MinWCEC *= p.WCECScale
		gp.MaxWCEC *= p.WCECScale
	}
	g, err := taskgen.Layered(gp, 4, 3)
	if err != nil {
		return nil, err
	}
	rel := reliability.Default(plat.Fmin(), plat.Fmax())
	alpha := p.Alpha
	if numeric.IsZero(alpha) {
		alpha = 1.0
	}
	h, err := core.Horizon(plat, mesh, g, rel, alpha)
	if err != nil {
		return nil, err
	}
	return core.NewSystem(plat, mesh, g, rel, h)
}

// solveOptimalWarm runs solve.Run's optimal policy — branch & bound
// warm-started from the repaired heuristic — under the Config's budgets.
func solveOptimalWarm(s *core.System, opts core.Options, cfg Config) (*core.Deployment, *core.SolveInfo, error) {
	opts.Trace = cfg.Trace
	return solve.Run(context.TODO(), s, solve.Optimal, solve.Options{
		Core:      opts,
		Seed:      1,
		TimeLimit: cfg.exactTimeLimit(),
		MaxNodes:  cfg.MaxNodes,
	})
}

func f3(v float64) string { return fmt.Sprintf("%.3g", v) }

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// mean returns the average of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
