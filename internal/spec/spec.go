// Package spec defines the JSON interchange format for problem instances
// and deployments, used by the command-line tools. A complete instance
// bundles the platform, mesh, task graph, reliability model and horizon
// rule; a deployment records every decision plus its metrics.
package spec

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"nocdeploy/internal/core"
	"nocdeploy/internal/noc"
	"nocdeploy/internal/numeric"
	"nocdeploy/internal/platform"
	"nocdeploy/internal/reliability"
	"nocdeploy/internal/task"
)

// VFLevel mirrors platform.VFLevel.
type VFLevel struct {
	Voltage float64 `json:"voltage"`
	Freq    float64 `json:"freq"`
}

// Platform describes the processor array.
type Platform struct {
	Levels []VFLevel `json:"levels,omitempty"` // empty means the default table
}

// Mesh describes the NoC.
type Mesh struct {
	W      int     `json:"w"`
	H      int     `json:"h"`
	Jitter float64 `json:"jitter,omitempty"` // default 0.25
	Seed   int64   `json:"seed,omitempty"`
}

// Task is one node of the task graph.
type Task struct {
	Name     string  `json:"name,omitempty"`
	WCEC     float64 `json:"wcec"`
	Deadline float64 `json:"deadline"`
}

// Edge is one dependency.
type Edge struct {
	From  int     `json:"from"`
	To    int     `json:"to"`
	Bytes float64 `json:"bytes"`
}

// Graph is the application DAG.
type Graph struct {
	Tasks []Task `json:"tasks"`
	Edges []Edge `json:"edges"`
}

// Reliability holds the fault-model constants; zero values pick defaults.
type Reliability struct {
	LambdaMax float64 `json:"lambdaMax,omitempty"`
	D         float64 `json:"d,omitempty"`
	Rth       float64 `json:"rth,omitempty"`
}

// Instance is a full problem instance. Exactly one of Horizon or Alpha
// must be positive: Horizon is absolute seconds; Alpha applies the paper's
// critical-path horizon rule.
type Instance struct {
	Platform    Platform    `json:"platform"`
	Mesh        Mesh        `json:"mesh"`
	Graph       Graph       `json:"graph"`
	Reliability Reliability `json:"reliability"`
	Horizon     float64     `json:"horizon,omitempty"`
	Alpha       float64     `json:"alpha,omitempty"`
}

// MaxMeshSide bounds each side of an instance's mesh. Building a mesh
// precomputes candidate paths for every core pair, so its cost climbs
// much faster than W×H: on a 2-vCPU, 8 GB VM a 12×12 mesh builds in
// 0.08 s and 61 MB, and a 16×16 one in 0.5 s and 322 MB; a 32×32 mesh
// exhausts the machine's memory. Without the bound, a request body of a
// hundred bytes could take down the deployment service.
const MaxMeshSide = 16

// Build materializes the instance into a solvable system.
func (in Instance) Build() (*core.System, error) {
	// Each side is checked on its own, so W×H below cannot overflow.
	if in.Mesh.W <= 0 || in.Mesh.H <= 0 || in.Mesh.W > MaxMeshSide || in.Mesh.H > MaxMeshSide {
		return nil, fmt.Errorf("spec: mesh %dx%d invalid (each side must be 1..%d)", in.Mesh.W, in.Mesh.H, MaxMeshSide)
	}
	levels := platform.DefaultLevels()
	if len(in.Platform.Levels) > 0 {
		levels = nil
		for _, l := range in.Platform.Levels {
			levels = append(levels, platform.VFLevel{Voltage: l.Voltage, Freq: l.Freq})
		}
	}
	plat, err := platform.New(in.Mesh.W*in.Mesh.H, levels, platform.DefaultPowerParams())
	if err != nil {
		return nil, err
	}
	jitter := in.Mesh.Jitter
	if numeric.IsZero(jitter) {
		jitter = 0.25
	}
	seed := in.Mesh.Seed
	if seed == 0 {
		seed = 1
	}
	mesh, err := noc.NewMesh(noc.Config{
		W: in.Mesh.W, H: in.Mesh.H,
		Link: noc.DefaultLinkParams(), Jitter: jitter, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	g := task.New()
	for _, t := range in.Graph.Tasks {
		g.AddTask(t.Name, t.WCEC, t.Deadline)
	}
	for _, e := range in.Graph.Edges {
		g.AddEdge(e.From, e.To, e.Bytes)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	rel := reliability.Default(plat.Fmin(), plat.Fmax())
	if in.Reliability.LambdaMax > 0 {
		rel.LambdaMax = in.Reliability.LambdaMax
	}
	if in.Reliability.D > 0 {
		rel.D = in.Reliability.D
	}
	if in.Reliability.Rth > 0 {
		rel.Rth = in.Reliability.Rth
	}
	h := in.Horizon
	if h <= 0 {
		if in.Alpha <= 0 {
			return nil, fmt.Errorf("spec: either horizon or alpha must be positive")
		}
		h, err = core.Horizon(plat, mesh, g, rel, in.Alpha)
		if err != nil {
			return nil, err
		}
	}
	return core.NewSystem(plat, mesh, g, rel, h)
}

// FromGraph converts a task graph into its spec form.
func FromGraph(g *task.Graph) Graph {
	var out Graph
	for _, t := range g.Tasks {
		out.Tasks = append(out.Tasks, Task{Name: t.Name, WCEC: t.WCEC, Deadline: t.Deadline})
	}
	for _, e := range g.Edges {
		out.Edges = append(out.Edges, Edge{From: e.From, To: e.To, Bytes: e.Bytes})
	}
	return out
}

// Deployment is the serialized result of a solve.
type Deployment struct {
	Exists  []bool    `json:"exists"`
	Level   []int     `json:"level"`
	Proc    []int     `json:"proc"`
	Start   []float64 `json:"start"`
	PathSel [][]int   `json:"pathSel"`

	Feasible  bool    `json:"feasible"`
	Objective float64 `json:"objective"`
	MaxEnergy float64 `json:"maxEnergy"`
	SumEnergy float64 `json:"sumEnergy"`
	Phi       float64 `json:"phi"`
	Dups      int     `json:"dups"`
	Makespan  float64 `json:"makespan"`
}

// FromDeployment serializes a deployment with its metrics.
func FromDeployment(d *core.Deployment, m *core.Metrics, info *core.SolveInfo) Deployment {
	out := Deployment{
		Exists:  d.Exists,
		Level:   d.Level,
		Proc:    d.Proc,
		Start:   d.Start,
		PathSel: d.PathSel,
	}
	if info != nil {
		out.Feasible = info.Feasible
		out.Objective = info.Objective
	}
	if m != nil {
		out.MaxEnergy = m.MaxEnergy
		out.SumEnergy = m.SumEnergy
		out.Phi = m.Phi
		out.Dups = m.Dups
		out.Makespan = m.Makespan
	}
	return out
}

// ToDeployment rebuilds the core deployment (metrics fields are ignored).
func (d Deployment) ToDeployment() *core.Deployment {
	return &core.Deployment{
		Exists:  d.Exists,
		Level:   d.Level,
		Proc:    d.Proc,
		Start:   d.Start,
		PathSel: d.PathSel,
	}
}

// ReadInstance loads an instance from a JSON file ("-" means stdin).
func ReadInstance(path string) (Instance, error) {
	var in Instance
	data, err := readAll(path)
	if err != nil {
		return in, err
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return in, fmt.Errorf("spec: parsing %s: %w", path, err)
	}
	return in, nil
}

// ReadDeployment loads a deployment from a JSON file ("-" means stdin).
func ReadDeployment(path string) (Deployment, error) {
	var d Deployment
	data, err := readAll(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("spec: parsing %s: %w", path, err)
	}
	return d, nil
}

// WriteJSON writes v as indented JSON to path ("-" means stdout).
func WriteJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" || path == "" {
		_, err = os.Stdout.Write(data) //lint:allow rawlog — "-" means stdout by CLI contract
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readAll(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}
