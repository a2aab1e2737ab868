package spec

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"nocdeploy/internal/core"
	"nocdeploy/internal/taskgen"
)

func sampleInstance() Instance {
	return Instance{
		Mesh: Mesh{W: 2, H: 2},
		Graph: Graph{
			Tasks: []Task{
				{Name: "a", WCEC: 1e6, Deadline: 0.01},
				{Name: "b", WCEC: 2e6, Deadline: 0.01},
			},
			Edges: []Edge{{From: 0, To: 1, Bytes: 2048}},
		},
		Alpha: 1.5,
	}
}

func TestInstanceBuild(t *testing.T) {
	s, err := sampleInstance().Build()
	if err != nil {
		t.Fatal(err)
	}
	if s.Mesh.N() != 4 || s.Graph.M() != 2 {
		t.Errorf("built system dims wrong: N=%d M=%d", s.Mesh.N(), s.Graph.M())
	}
	if s.H <= 0 {
		t.Errorf("horizon %g", s.H)
	}
}

func TestInstanceBuildErrors(t *testing.T) {
	in := sampleInstance()
	in.Mesh.W = 0
	if _, err := in.Build(); err == nil {
		t.Error("expected error for zero mesh width")
	}
	in = sampleInstance()
	in.Alpha = 0
	if _, err := in.Build(); err == nil {
		t.Error("expected error with neither horizon nor alpha")
	}
	in = sampleInstance()
	in.Graph.Edges[0].To = 9
	if _, err := in.Build(); err == nil {
		t.Error("expected error for bad edge")
	}
}

// TestInstanceBuildRejectsOversizedMesh: meshes past MaxMeshSide on
// either side are refused before anything is built — including sides
// whose product overflows int — and the largest allowed mesh still
// passes the check.
func TestInstanceBuildRejectsOversizedMesh(t *testing.T) {
	for _, wh := range [][2]int{
		{32, 32},
		{MaxMeshSide + 1, 1},
		{1, MaxMeshSide + 1},
		{math.MaxInt, 2},
		{2, math.MaxInt},
		{math.MaxInt, math.MaxInt},
		{math.MinInt, -1},
	} {
		in := sampleInstance()
		in.Mesh.W, in.Mesh.H = wh[0], wh[1]
		if _, err := in.Build(); err == nil || !strings.Contains(err.Error(), "mesh") {
			t.Errorf("mesh %dx%d: Build error = %v, want a mesh size error", wh[0], wh[1], err)
		}
	}
	in := sampleInstance()
	in.Mesh.W, in.Mesh.H = MaxMeshSide, 1
	if _, err := in.Build(); err != nil {
		t.Errorf("mesh %dx1 rejected: %v", MaxMeshSide, err)
	}
}

// TestMaxMeshSideAllocation holds the memory bound MaxMeshSide exists
// for: a request for the largest mesh allowed builds its instance in
// under 100 MB.
func TestMaxMeshSideAllocation(t *testing.T) {
	in := sampleInstance()
	in.Mesh.W, in.Mesh.H = MaxMeshSide, MaxMeshSide
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := in.Build(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 100 {
		t.Errorf("%dx%d instance allocated %.0f MB, want under 100 MB", MaxMeshSide, MaxMeshSide, mb)
	}
}

// TestHorizonOneRouterMesh: a one-router mesh carries no traffic, so the
// horizon rule charges no communication time, whatever an edge's payload:
// H = α·(sum of the chain's execution-time midpoints).
func TestHorizonOneRouterMesh(t *testing.T) {
	const alpha = 1.5
	for _, bytes := range []float64{1024, 0} {
		in := sampleInstance()
		in.Mesh.W, in.Mesh.H = 1, 1
		in.Graph.Edges[0].Bytes = bytes
		in.Alpha = alpha
		s, err := in.Build()
		if err != nil {
			t.Fatalf("%g bytes: %v", bytes, err)
		}
		var want float64
		for _, tk := range in.Graph.Tasks {
			lo, hi := math.Inf(1), 0.0
			for l := 0; l < s.Plat.L(); l++ {
				lo = math.Min(lo, s.Plat.ExecTime(tk.WCEC, l))
				hi = math.Max(hi, s.Plat.ExecTime(tk.WCEC, l))
			}
			want += (lo + hi) / 2
		}
		want *= alpha
		h, err := core.Horizon(s.Plat, s.Mesh, s.Graph, s.Rel, alpha)
		if err != nil {
			t.Fatalf("%g bytes: %v", bytes, err)
		}
		for name, got := range map[string]float64{"core.Horizon": h, "Instance.Build": s.H} {
			if math.Abs(got-want) > 1e-12*want {
				t.Errorf("%g bytes: %s horizon %g, want %g", bytes, name, got, want)
			}
		}
	}
}

func TestInstanceOverrides(t *testing.T) {
	in := sampleInstance()
	in.Horizon = 0.5
	in.Reliability = Reliability{Rth: 0.99, LambdaMax: 1e-4, D: 4}
	in.Platform.Levels = []VFLevel{{Voltage: 0.9, Freq: 0.6e9}, {Voltage: 1.1, Freq: 1.0e9}}
	s, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s.H != 0.5 {
		t.Errorf("horizon %g, want 0.5", s.H)
	}
	if s.Plat.L() != 2 {
		t.Errorf("levels %d, want 2", s.Plat.L())
	}
	if s.Rel.Rth != 0.99 || s.Rel.LambdaMax != 1e-4 {
		t.Errorf("reliability not overridden: %+v", s.Rel)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := sampleInstance()
	dir := t.TempDir()
	path := filepath.Join(dir, "instance.json")
	if err := WriteJSON(path, in); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInstance(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, back) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", in, back)
	}
}

func TestDeploymentRoundTrip(t *testing.T) {
	s, err := sampleInstance().Build()
	if err != nil {
		t.Fatal(err)
	}
	d, info, err := core.Heuristic(s, core.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.ComputeMetrics(s, d)
	if err != nil {
		t.Fatal(err)
	}
	sd := FromDeployment(d, m, info)
	data, err := json.Marshal(sd)
	if err != nil {
		t.Fatal(err)
	}
	var back Deployment
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	d2 := back.ToDeployment()
	if !reflect.DeepEqual(d, d2) {
		t.Errorf("deployment round trip mismatch")
	}
	// The round-tripped deployment must still validate.
	if _, err := core.ComputeMetrics(s, d2); err != nil {
		t.Errorf("round-tripped deployment invalid: %v", err)
	}
}

func TestFromGraph(t *testing.T) {
	g, err := taskgen.Layered(taskgen.DefaultParams(6, 1), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	gs := FromGraph(g)
	if len(gs.Tasks) != 6 || len(gs.Edges) != len(g.Edges) {
		t.Errorf("FromGraph sizes wrong")
	}
}

func TestReadMissingFile(t *testing.T) {
	if _, err := ReadInstance(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("expected error for missing file")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadInstance(bad); err == nil {
		t.Error("expected error for malformed JSON")
	}
	if _, err := ReadDeployment(bad); err == nil {
		t.Error("expected error for malformed deployment JSON")
	}
}
