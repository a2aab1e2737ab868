package task

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomDAG builds a random forward-edge DAG (test-local, independent of
// package taskgen so the two implementations cross-check each other).
func randomDAG(seed int64, m int, p float64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	for i := 0; i < m; i++ {
		g.AddTask("", 1+rng.Float64()*1e6, 1e-3+rng.Float64())
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j, 1+rng.Float64()*1e4)
			}
		}
	}
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return g
}

// Property: every edge crosses to a strictly deeper layer, and layer 0
// contains exactly the sources.
func TestLayersProperty(t *testing.T) {
	f := func(seed int64, mRaw uint8, pRaw uint8) bool {
		m := 2 + int(mRaw%15)
		p := float64(pRaw%80) / 100
		g := randomDAG(seed, m, p)
		layers, err := g.Layers()
		if err != nil {
			t.Fatal(err)
		}
		level := make([]int, m)
		for li, layer := range layers {
			for _, v := range layer {
				level[v] = li
			}
		}
		for _, e := range g.Edges {
			if level[e.From] >= level[e.To] {
				return false
			}
		}
		for _, v := range layers[0] {
			if len(g.Pred(v)) != 0 {
				return false
			}
		}
		// Every task appears exactly once across layers.
		seen := map[int]int{}
		for _, layer := range layers {
			for _, v := range layer {
				seen[v]++
			}
		}
		if len(seen) != m {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: CriticalPath returns a real path whose weight matches an
// independent DP over all paths.
func TestCriticalPathProperty(t *testing.T) {
	f := func(seed int64, mRaw uint8) bool {
		m := 2 + int(mRaw%12)
		g := randomDAG(seed, m, 0.3)
		weight := func(i int) float64 { return g.Tasks[i].WCEC }
		path, err := g.CriticalPath(weight)
		if err != nil {
			t.Fatal(err)
		}
		if len(path) == 0 {
			return false
		}
		// Path is connected.
		for i := 0; i+1 < len(path); i++ {
			if !g.HasEdge(path[i], path[i+1]) {
				return false
			}
		}
		var pw float64
		for _, v := range path {
			pw += weight(v)
		}
		// Independent longest-path DP.
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		best := make([]float64, m)
		maxW := 0.0
		for _, v := range order {
			best[v] = weight(v)
			for _, p := range g.Pred(v) {
				if best[p]+weight(v) > best[v] {
					best[v] = best[p] + weight(v)
				}
			}
			if best[v] > maxW {
				maxW = best[v]
			}
		}
		return pw >= maxW-1e-9 && pw <= maxW+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the duplication expansion is structure-preserving — DepEdges
// has exactly 4 entries per base edge, Dep is consistent with DepEdges,
// In lists each slot's incoming edges with their data sizes, and
// ExistingLayers with all-true layers all 2M slots under all 4·E edges,
// with a random subset only the chosen slots under their edges.
func TestExpandProperty(t *testing.T) {
	f := func(seed int64, mRaw uint8) bool {
		m := 2 + int(mRaw%10)
		g := randomDAG(seed, m, 0.25)
		e := Expand(g)
		edges := e.DepEdges()
		if len(edges) != 4*len(g.Edges) {
			return false
		}
		seen := map[[2]int]bool{}
		for _, pr := range edges {
			if !e.Dep(pr[0], pr[1]) {
				return false
			}
			seen[pr] = true
		}
		// No duplicates.
		if len(seen) != len(edges) {
			return false
		}
		in := 0
		for b := 0; b < e.Size(); b++ {
			prev := -1
			for _, k := range e.In(b) {
				if edges[k][1] != b || k <= prev || e.EdgeData(k) != e.Data(edges[k][0], b) {
					return false
				}
				prev = k
				in++
			}
		}
		if in != len(edges) {
			return false
		}
		all := make([]bool, e.Size())
		for i := range all {
			all[i] = true
		}
		if order, checked := layeredEdges(e, all); len(order) != 2*m || checked != 4*len(g.Edges) {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		subset := make([]bool, e.Size())
		chosen := 0
		for i := range subset {
			if subset[i] = rng.Intn(2) == 0; subset[i] {
				chosen++
			}
		}
		order, checked := layeredEdges(e, subset)
		return len(order) == chosen && checked >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// layeredEdges layers the slots chosen by exists and checks the layering:
// it holds each chosen slot once and no other, layers ascend by slot, and
// every edge between chosen slots descends at least one layer. It returns
// the order and the number of edges checked, or -1 edges on a violation.
func layeredEdges(e *Expanded, exists []bool) ([]int, int) {
	order, start := e.ExistingLayers(exists)
	level := make([]int, e.Size())
	for i := range level {
		level[i] = -1
	}
	for l := 0; l+1 < len(start); l++ {
		for j := start[l]; j < start[l+1]; j++ {
			v := order[j]
			if !exists[v] || level[v] >= 0 || (j > start[l] && order[j-1] >= v) {
				return order, -1
			}
			level[v] = l
		}
	}
	checked := 0
	for _, pr := range e.DepEdges() {
		a, b := pr[0], pr[1]
		if !exists[a] || !exists[b] {
			continue
		}
		if level[a] >= level[b] {
			return order, -1
		}
		checked++
	}
	return order, checked
}
