package taskgen

import (
	"reflect"
	"testing"
	"testing/quick"

	"nocdeploy/internal/task"
)

func checkGraph(t *testing.T, g *task.Graph, wantM int, p Params) {
	t.Helper()
	if g.M() != wantM {
		t.Fatalf("M = %d, want %d", g.M(), wantM)
	}
	if _, err := g.TopoOrder(); err != nil {
		t.Fatalf("generated graph not a DAG: %v", err)
	}
	for _, tk := range g.Tasks {
		if tk.WCEC < p.MinWCEC || tk.WCEC > p.MaxWCEC {
			t.Errorf("task %d WCEC %g outside [%g, %g]", tk.ID, tk.WCEC, p.MinWCEC, p.MaxWCEC)
		}
		if tk.Deadline <= 0 {
			t.Errorf("task %d deadline %g", tk.ID, tk.Deadline)
		}
	}
	for _, e := range g.Edges {
		if e.Bytes < p.MinBytes || e.Bytes > p.MaxBytes {
			t.Errorf("edge %d→%d bytes %g outside range", e.From, e.To, e.Bytes)
		}
	}
}

func TestLayered(t *testing.T) {
	p := DefaultParams(20, 7)
	g, err := Layered(p, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkGraph(t, g, 20, p)
	if len(g.Edges) == 0 {
		t.Error("layered graph has no edges")
	}
}

func TestLayeredDeterministic(t *testing.T) {
	p := DefaultParams(12, 3)
	g1, err := Layered(p, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Layered(p, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g1.Tasks, g2.Tasks) || !reflect.DeepEqual(g1.Edges, g2.Edges) {
		t.Error("same seed produced different graphs")
	}
	p2 := p
	p2.Seed = 4
	g3, err := Layered(p2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(g1.Edges, g3.Edges) && reflect.DeepEqual(g1.Tasks, g3.Tasks) {
		t.Error("different seeds produced identical graphs")
	}
}

func TestForkJoinShape(t *testing.T) {
	p := DefaultParams(10, 1)
	g, err := ForkJoin(p)
	if err != nil {
		t.Fatal(err)
	}
	checkGraph(t, g, 10, p)
	if got := g.Sources(); len(got) != 1 {
		t.Errorf("fork-join sources = %v", got)
	}
	if got := g.Sinks(); len(got) != 1 {
		t.Errorf("fork-join sinks = %v", got)
	}
	layers, err := g.Layers()
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != 3 {
		t.Errorf("fork-join layers = %d, want 3", len(layers))
	}
	if len(layers[1]) != 8 {
		t.Errorf("middle layer width = %d, want 8", len(layers[1]))
	}
}

func TestForkJoinTooSmall(t *testing.T) {
	if _, err := ForkJoin(DefaultParams(2, 1)); err == nil {
		t.Error("expected error for M < 3")
	}
}

func TestSeriesParallelSingleSourceSink(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := DefaultParams(15, seed)
		g, err := SeriesParallel(p)
		if err != nil {
			t.Fatal(err)
		}
		checkGraph(t, g, 15, p)
	}
}

func TestGNP(t *testing.T) {
	p := DefaultParams(15, 2)
	g, err := GNP(p, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	checkGraph(t, g, 15, p)
	if _, err := GNP(p, 1.5); err == nil {
		t.Error("expected error for prob > 1")
	}
}

func TestGNPEdgeCounts(t *testing.T) {
	p := DefaultParams(10, 5)
	dense, err := GNP(p, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if want := 10 * 9 / 2; len(dense.Edges) != want {
		t.Errorf("GNP(1.0) edges = %d, want %d", len(dense.Edges), want)
	}
	empty, err := GNP(p, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Edges) != 0 {
		t.Errorf("GNP(0.0) edges = %d, want 0", len(empty.Edges))
	}
}

func TestValidation(t *testing.T) {
	bad := DefaultParams(0, 1)
	if _, err := Layered(bad, 3, 2); err == nil {
		t.Error("expected error for M=0")
	}
	p := DefaultParams(5, 1)
	p.MaxWCEC = p.MinWCEC / 2
	if _, err := Layered(p, 3, 2); err == nil {
		t.Error("expected error for inverted WCEC range")
	}
	p = DefaultParams(5, 1)
	p.Deadline, p.DeadlineSlack = 0, 0
	if _, err := Layered(p, 3, 2); err == nil {
		t.Error("expected error for no deadline rule")
	}
	if _, err := Layered(DefaultParams(5, 1), 0, 2); err == nil {
		t.Error("expected error for maxWidth=0")
	}
}

// Property: every generator yields a valid DAG with the requested size for
// arbitrary seeds and sizes.
func TestGeneratorsAlwaysValidProperty(t *testing.T) {
	f := func(seed int64, mRaw uint8) bool {
		m := 3 + int(mRaw%20)
		p := DefaultParams(m, seed)
		for _, gen := range []func() (*task.Graph, error){
			func() (*task.Graph, error) { return Layered(p, 4, 3) },
			func() (*task.Graph, error) { return ForkJoin(p) },
			func() (*task.Graph, error) { return SeriesParallel(p) },
			func() (*task.Graph, error) { return GNP(p, 0.25) },
		} {
			g, err := gen()
			if err != nil || g.M() != m {
				return false
			}
			if _, err := g.TopoOrder(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
