// Package task models the periodic task set of the paper: a DAG of M tasks
// released at time zero sharing a scheduling horizon H. Each task carries a
// worst-case execution cycle count (WCEC), a relative deadline, and weighted
// dependency edges whose weight is the number of bytes the predecessor sends
// to the successor.
//
// The package also implements the paper's duplication expansion: for a task
// set of size M, tasks i and i+M denote the original and its copy; copies
// inherit every dependency of the original, so an edge i→j induces edges
// i→j, i+M→j, i→j+M and i+M→j+M among whichever copies exist.
package task

import (
	"fmt"
	"math"
	"sort"
)

// Task is a single node of the task graph.
type Task struct {
	ID       int
	Name     string
	WCEC     float64 // worst-case execution cycles
	Deadline float64 // relative deadline in seconds (on execution time, per constraint (8))
}

// Edge is a data dependency: From must finish and ship Bytes to To before
// To may start.
type Edge struct {
	From, To int
	Bytes    float64
}

// Graph is an immutable-after-Validate task DAG.
type Graph struct {
	Tasks []Task
	Edges []Edge

	succ [][]int // successor task ids per task
	pred [][]int // predecessor task ids per task
	data map[[2]int]float64
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{data: map[[2]int]float64{}}
}

// AddTask appends a task and returns its id.
func (g *Graph) AddTask(name string, wcec, deadline float64) int {
	id := len(g.Tasks)
	g.Tasks = append(g.Tasks, Task{ID: id, Name: name, WCEC: wcec, Deadline: deadline})
	return id
}

// AddEdge records a dependency from→to carrying bytes of data.
func (g *Graph) AddEdge(from, to int, bytes float64) {
	g.Edges = append(g.Edges, Edge{From: from, To: to, Bytes: bytes})
}

// M returns the number of tasks.
func (g *Graph) M() int { return len(g.Tasks) }

// Validate checks ids, positivity and acyclicity, and builds the adjacency
// indexes. It must be called (directly or via a constructor helper) before
// the traversal methods.
func (g *Graph) Validate() error {
	m := g.M()
	if m == 0 {
		return fmt.Errorf("task: graph has no tasks")
	}
	for i, t := range g.Tasks {
		if t.ID != i {
			return fmt.Errorf("task: task %d has inconsistent id %d", i, t.ID)
		}
		// NaN fails every comparison, so finiteness is checked first.
		if !finite(t.WCEC) {
			return fmt.Errorf("task: task %d has non-finite WCEC %g", i, t.WCEC)
		}
		if t.WCEC <= 0 {
			return fmt.Errorf("task: task %d has non-positive WCEC %g", i, t.WCEC)
		}
		if !finite(t.Deadline) {
			return fmt.Errorf("task: task %d has non-finite deadline %g", i, t.Deadline)
		}
		if t.Deadline <= 0 {
			return fmt.Errorf("task: task %d has non-positive deadline %g", i, t.Deadline)
		}
	}
	g.succ = make([][]int, m)
	g.pred = make([][]int, m)
	g.data = map[[2]int]float64{}
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= m || e.To < 0 || e.To >= m {
			return fmt.Errorf("task: edge %d→%d out of range", e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("task: self edge on task %d", e.From)
		}
		if !finite(e.Bytes) {
			return fmt.Errorf("task: edge %d→%d has non-finite data size %g", e.From, e.To, e.Bytes)
		}
		if e.Bytes < 0 {
			return fmt.Errorf("task: edge %d→%d has negative data size", e.From, e.To)
		}
		key := [2]int{e.From, e.To}
		if _, dup := g.data[key]; dup {
			return fmt.Errorf("task: duplicate edge %d→%d", e.From, e.To)
		}
		g.data[key] = e.Bytes
		g.succ[e.From] = append(g.succ[e.From], e.To)
		g.pred[e.To] = append(g.pred[e.To], e.From)
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Succ returns the successor ids of task i.
func (g *Graph) Succ(i int) []int { return g.succ[i] }

// Pred returns the predecessor ids of task i.
func (g *Graph) Pred(i int) []int { return g.pred[i] }

// HasEdge reports whether the dependency from→to exists (the paper's p_ij).
func (g *Graph) HasEdge(from, to int) bool {
	_, ok := g.data[[2]int{from, to}]
	return ok
}

// Data returns s_ij, the bytes shipped from→to, zero if no edge.
func (g *Graph) Data(from, to int) float64 { return g.data[[2]int{from, to}] }

// TopoOrder returns a topological order of the task ids, or an error if the
// graph has a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	m := g.M()
	indeg := make([]int, m)
	for _, e := range g.Edges {
		indeg[e.To]++
	}
	var queue []int
	for i := 0; i < m; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, m)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, s := range g.succ[v] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != m {
		return nil, fmt.Errorf("task: dependency graph has a cycle")
	}
	return order, nil
}

// Layers partitions tasks into levels by longest path from any source: a
// task's layer is 1 + max over predecessors. This is the in/out-degree
// layering used by Algorithm 2. A cyclic graph is reported as an error.
func (g *Graph) Layers() ([][]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("task: Layers on cyclic graph: %w", err)
	}
	level := make([]int, g.M())
	deepest := 0
	for _, v := range order {
		for _, p := range g.pred[v] {
			if level[p]+1 > level[v] {
				level[v] = level[p] + 1
			}
		}
		if level[v] > deepest {
			deepest = level[v]
		}
	}
	layers := make([][]int, deepest+1)
	for i := 0; i < g.M(); i++ {
		layers[level[i]] = append(layers[level[i]], i)
	}
	return layers, nil
}

// CriticalPath returns the task ids of a path maximizing the summed node
// weight, where weight(i) is supplied by the caller (e.g. average execution
// plus communication time); this is the set C in the paper's horizon rule.
// A cyclic graph is reported as an error.
func (g *Graph) CriticalPath(weight func(i int) float64) ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("task: CriticalPath on cyclic graph: %w", err)
	}
	best := make([]float64, g.M())
	from := make([]int, g.M())
	for i := range from {
		from[i] = -1
	}
	endTask, endVal := -1, -1.0
	for _, v := range order {
		best[v] = weight(v)
		for _, p := range g.pred[v] {
			if best[p]+weight(v) > best[v] {
				best[v] = best[p] + weight(v)
				from[v] = p
			}
		}
		if best[v] > endVal {
			endTask, endVal = v, best[v]
		}
	}
	var rev []int
	for v := endTask; v != -1; v = from[v] {
		rev = append(rev, v)
	}
	path := make([]int, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path, nil
}

// Sources returns tasks with no predecessors, sorted by id.
func (g *Graph) Sources() []int {
	var out []int
	for i := 0; i < g.M(); i++ {
		if len(g.pred[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Sinks returns tasks with no successors, sorted by id.
func (g *Graph) Sinks() []int {
	var out []int
	for i := 0; i < g.M(); i++ {
		if len(g.succ[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Clone returns a deep copy of g (validated if g was).
func (g *Graph) Clone() *Graph {
	c := New()
	c.Tasks = append([]Task(nil), g.Tasks...)
	c.Edges = append([]Edge(nil), g.Edges...)
	if g.succ != nil {
		if err := c.Validate(); err != nil {
			//lint:allow nopanic — invariant: re-validating an already-validated graph cannot fail
			panic("task: clone of valid graph failed: " + err.Error())
		}
	}
	return c
}

// Expanded is the duplication-expanded view of a graph: 2M potential tasks
// where slot i+M is the copy of task i. Which copies exist is a decision
// (the paper's h variable), so Expanded only fixes structure: WCEC,
// deadlines and the dependency pattern p over 2M×2M.
//
// Every deployment evaluation walks this structure, so Expand computes
// what the walks need once: the sorted expanded edges, each edge's data
// size, each slot's incoming edges and a topological order of the base
// tasks. An evaluation then costs time linear in the expanded graph.
type Expanded struct {
	Base *Graph
	M    int // original task count; expanded size is 2M

	depEdges [][2]int  // expanded dependency pairs, sorted by (from, to)
	edgeData []float64 // edgeData[k]: bytes carried by depEdges[k]
	// inEdge[inStart[b]:inStart[b+1]] are the indices into depEdges of
	// the edges into slot b, in depEdges order.
	inStart []int
	inEdge  []int
	topo    []int // a topological order of the base tasks
}

// Expand builds the 2M-slot expanded view of a validated graph.
func Expand(g *Graph) *Expanded {
	e := &Expanded{Base: g, M: g.M()}
	e.depEdges = make([][2]int, 0, 4*len(g.Edges))
	for _, ed := range g.Edges {
		e.depEdges = append(e.depEdges,
			[2]int{ed.From, ed.To},
			[2]int{ed.From + e.M, ed.To},
			[2]int{ed.From, ed.To + e.M},
			[2]int{ed.From + e.M, ed.To + e.M},
		)
	}
	sort.Slice(e.depEdges, func(i, j int) bool {
		if e.depEdges[i][0] != e.depEdges[j][0] {
			return e.depEdges[i][0] < e.depEdges[j][0]
		}
		return e.depEdges[i][1] < e.depEdges[j][1]
	})
	e.edgeData = make([]float64, len(e.depEdges))
	e.inStart = make([]int, e.Size()+1)
	for k, pair := range e.depEdges {
		e.edgeData[k] = e.Data(pair[0], pair[1])
		e.inStart[pair[1]+1]++
	}
	for b := 0; b < e.Size(); b++ {
		e.inStart[b+1] += e.inStart[b]
	}
	e.inEdge = make([]int, len(e.depEdges))
	next := append([]int(nil), e.inStart[:e.Size()]...)
	for k, pair := range e.depEdges {
		e.inEdge[next[pair[1]]] = k
		next[pair[1]]++
	}
	topo, err := g.TopoOrder()
	if err != nil {
		//lint:allow nopanic — invariant: Expand takes a graph that passed Validate, which rejects cycles
		panic("task: Expand of an unvalidated graph: " + err.Error())
	}
	e.topo = topo
	return e
}

// Size returns 2M, the paper's M'.
func (e *Expanded) Size() int { return 2 * e.M }

// Orig maps an expanded slot to its original task id.
func (e *Expanded) Orig(i int) int {
	if i >= e.M {
		return i - e.M
	}
	return i
}

// IsCopy reports whether slot i is a duplicate slot.
func (e *Expanded) IsCopy(i int) bool { return i >= e.M }

// WCEC returns the cycle count of slot i (copies share the original's).
func (e *Expanded) WCEC(i int) float64 { return e.Base.Tasks[e.Orig(i)].WCEC }

// Deadline returns the relative deadline of slot i.
func (e *Expanded) Deadline(i int) float64 { return e.Base.Tasks[e.Orig(i)].Deadline }

// Dep reports p_ij over the expanded slots: slot a depends on slot b's data
// iff the originals are connected.
func (e *Expanded) Dep(from, to int) bool {
	return e.Base.HasEdge(e.Orig(from), e.Orig(to))
}

// Data returns s_ij over expanded slots.
func (e *Expanded) Data(from, to int) float64 {
	return e.Base.Data(e.Orig(from), e.Orig(to))
}

// DepEdges lists every expanded dependency pair (from, to) with from ≠ to,
// i.e. all (a,b) with p_ab = 1, sorted by (from, to). Pairs between the
// two copies of the same task are excluded (a task does not feed its own
// duplicate). The returned slice is cached and shared: callers must treat
// it as read-only.
func (e *Expanded) DepEdges() [][2]int { return e.depEdges }

// EdgeData returns the bytes carried by DepEdges()[k]: Data of its pair.
func (e *Expanded) EdgeData(k int) float64 { return e.edgeData[k] }

// In returns the indices into DepEdges of the edges into slot b, in
// DepEdges order, so by ascending predecessor slot. The slice is shared:
// callers must treat it as read-only.
func (e *Expanded) In(b int) []int { return e.inEdge[e.inStart[b]:e.inStart[b+1]] }

// ExistingLayers layers the slots i with exists[i] by longest-path depth
// over their existing predecessors, the layering of Algorithm 2: a slot
// with no existing predecessor is in layer 0, any other one a layer below
// its deepest existing predecessor. It returns the slots layer by layer
// in one slice, ascending within each layer, and the layer bounds: layer
// l is order[start[l]:start[l+1]]. The order is topological over the
// existing slots.
func (e *Expanded) ExistingLayers(exists []bool) (order, start []int) {
	if len(exists) != e.Size() {
		//lint:allow nopanic — programmer error: the exists mask must match the expanded size
		panic(fmt.Sprintf("task: exists length %d, want %d", len(exists), e.Size()))
	}
	level := make([]int, e.Size())
	deepest := -1
	for _, v := range e.topo {
		for _, slot := range [2]int{v, v + e.M} {
			if !exists[slot] {
				continue
			}
			for _, k := range e.In(slot) {
				if a := e.depEdges[k][0]; exists[a] && level[a]+1 > level[slot] {
					level[slot] = level[a] + 1
				}
			}
			if level[slot] > deepest {
				deepest = level[slot]
			}
		}
	}
	start = make([]int, deepest+2)
	for i, ex := range exists {
		if ex {
			start[level[i]+1]++
		}
	}
	for l := 0; l <= deepest; l++ {
		start[l+1] += start[l]
	}
	order = make([]int, start[deepest+1])
	next := append([]int(nil), start[:deepest+1]...)
	for i, ex := range exists {
		if ex {
			order[next[level[i]]] = i
			next[level[i]]++
		}
	}
	return order, start
}
