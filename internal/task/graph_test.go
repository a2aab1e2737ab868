package task

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// chain builds t0 → t1 → ... → t_{n-1}, validated.
func chain(t *testing.T, n int) *Graph {
	t.Helper()
	g := New()
	for i := 0; i < n; i++ {
		g.AddTask("", 1e6, 1.0)
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1024)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestValidateRejectsBadGraphs(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Graph
	}{
		{"empty", func() *Graph { return New() }},
		{"zero wcec", func() *Graph {
			g := New()
			g.AddTask("", 0, 1)
			return g
		}},
		{"zero deadline", func() *Graph {
			g := New()
			g.AddTask("", 1, 0)
			return g
		}},
		{"edge out of range", func() *Graph {
			g := New()
			g.AddTask("", 1, 1)
			g.AddEdge(0, 3, 1)
			return g
		}},
		{"self edge", func() *Graph {
			g := New()
			g.AddTask("", 1, 1)
			g.AddEdge(0, 0, 1)
			return g
		}},
		{"negative data", func() *Graph {
			g := New()
			g.AddTask("", 1, 1)
			g.AddTask("", 1, 1)
			g.AddEdge(0, 1, -5)
			return g
		}},
		{"duplicate edge", func() *Graph {
			g := New()
			g.AddTask("", 1, 1)
			g.AddTask("", 1, 1)
			g.AddEdge(0, 1, 1)
			g.AddEdge(0, 1, 2)
			return g
		}},
		{"cycle", func() *Graph {
			g := New()
			g.AddTask("", 1, 1)
			g.AddTask("", 1, 1)
			g.AddEdge(0, 1, 1)
			g.AddEdge(1, 0, 1)
			return g
		}},
	}
	for _, c := range cases {
		if err := c.build().Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
	// NaN fails every comparison, so each non-finite value needs its own
	// check; the error names the task or edge. Each graph is 0→1 with
	// task 1 and the edge carrying the values under test.
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name, want            string
		wcec, deadline, bytes float64
	}{
		{"NaN wcec", "task 1 has non-finite WCEC", nan, 1, 1},
		{"infinite wcec", "task 1 has non-finite WCEC", inf, 1, 1},
		{"NaN deadline", "task 1 has non-finite deadline", 1, nan, 1},
		{"infinite deadline", "task 1 has non-finite deadline", 1, inf, 1},
		{"NaN data", "edge 0→1 has non-finite data size", 1, 1, nan},
		{"infinite data", "edge 0→1 has non-finite data size", 1, 1, inf},
	} {
		g := New()
		g.AddTask("", 1, 1)
		g.AddTask("", c.wcec, c.deadline)
		g.AddEdge(0, 1, c.bytes)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g := New()
	for i := 0; i < 6; i++ {
		g.AddTask("", 1e6, 1)
	}
	edges := [][2]int{{0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 5}, {4, 5}}
	for _, e := range edges {
		g.AddEdge(e[0], e[1], 10)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, g.M())
	for p, v := range order {
		pos[v] = p
	}
	for _, e := range edges {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("edge %d→%d violated in order %v", e[0], e[1], order)
		}
	}
}

func TestLayersOfDiamond(t *testing.T) {
	g := New()
	for i := 0; i < 4; i++ {
		g.AddTask("", 1e6, 1)
	}
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	layers, err := g.Layers()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0}, {1, 2}, {3}}
	if !reflect.DeepEqual(layers, want) {
		t.Errorf("layers = %v, want %v", layers, want)
	}
}

func TestCriticalPathPicksHeavierBranch(t *testing.T) {
	g := New()
	// 0 → {1 (heavy), 2 (light)} → 3
	g.AddTask("", 1e6, 1)
	g.AddTask("", 9e6, 1)
	g.AddTask("", 1e6, 1)
	g.AddTask("", 1e6, 1)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	got, err := g.CriticalPath(func(i int) float64 { return g.Tasks[i].WCEC })
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("critical path = %v, want %v", got, want)
	}
}

func TestSourcesSinks(t *testing.T) {
	g := chain(t, 4)
	if got := g.Sources(); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("sources = %v", got)
	}
	if got := g.Sinks(); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("sinks = %v", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := chain(t, 3)
	c := g.Clone()
	c.Tasks[0].WCEC = 42
	if g.Tasks[0].WCEC == 42 {
		t.Error("clone shares task storage with original")
	}
	if c.M() != g.M() || len(c.Edges) != len(g.Edges) {
		t.Error("clone structure differs")
	}
}

func TestExpandedMapping(t *testing.T) {
	g := chain(t, 3)
	e := Expand(g)
	if e.Size() != 6 {
		t.Fatalf("Size = %d", e.Size())
	}
	for i := 0; i < 3; i++ {
		if e.IsCopy(i) || !e.IsCopy(i+3) {
			t.Errorf("IsCopy wrong at %d", i)
		}
		if e.Orig(i) != i || e.Orig(i+3) != i {
			t.Errorf("Orig wrong at %d", i)
		}
		if e.WCEC(i) != e.WCEC(i+3) {
			t.Errorf("copy WCEC differs at %d", i)
		}
	}
}

// The paper's Fig. 1(c): chain τ1→τ2→τ3 duplicated as τ4,τ5,τ6. The copy of
// a predecessor feeds both the original and the copy of its successor.
func TestExpandedDepEdges(t *testing.T) {
	g := chain(t, 2) // 0→1, copies are 2,3
	e := Expand(g)
	want := map[[2]int]bool{
		{0, 1}: true, {2, 1}: true, {0, 3}: true, {2, 3}: true,
	}
	got := e.DepEdges()
	if len(got) != len(want) {
		t.Fatalf("DepEdges = %v", got)
	}
	for _, p := range got {
		if !want[p] {
			t.Errorf("unexpected expanded edge %v", p)
		}
	}
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if e.Dep(a, b) != want[[2]int{a, b}] {
				t.Errorf("Dep(%d,%d) = %v", a, b, e.Dep(a, b))
			}
		}
	}
	// Data sizes inherited from the base edge.
	if e.Data(2, 3) != g.Data(0, 1) {
		t.Errorf("copy edge data %g != base %g", e.Data(2, 3), g.Data(0, 1))
	}
}

func TestExistingLayersSubset(t *testing.T) {
	g := chain(t, 3)
	e := Expand(g)
	exists := []bool{true, true, true, true, false, false} // only τ1 duplicated
	order, start := e.ExistingLayers(exists)
	// Existing edges: 0→1, 1→2 and 3→1 (the copy of τ1 feeds τ2). The
	// layering groups each copy with its original, as in Fig. 1(c), and
	// holds only the chosen slots.
	want := [][]int{{0, 3}, {1}, {2}}
	if len(start) != len(want)+1 || len(order) != 4 {
		t.Fatalf("order %v, layer bounds %v; want layers %v", order, start, want)
	}
	for l, w := range want {
		if got := order[start[l]:start[l+1]]; !reflect.DeepEqual(got, w) {
			t.Errorf("layer %d = %v, want %v", l, got, w)
		}
	}
	// Only edges between chosen slots count: without τ2, τ1 and τ3 are
	// both sources.
	order, start = e.ExistingLayers([]bool{true, false, true, false, false, false})
	if !reflect.DeepEqual(order, []int{0, 2}) || !reflect.DeepEqual(start, []int{0, 2}) {
		t.Errorf("order %v, layer bounds %v; want one layer [0 2]", order, start)
	}
}

func TestExistingLayersPanicsOnBadLength(t *testing.T) {
	g := chain(t, 2)
	e := Expand(g)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong exists length")
		}
	}()
	e.ExistingLayers([]bool{true})
}
