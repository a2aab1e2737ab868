package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"nocdeploy/internal/noc"
	"nocdeploy/internal/platform"
	"nocdeploy/internal/reliability"
	"nocdeploy/internal/task"
)

// The reference kernel below is the evaluation as it was written before
// the predecessor lists: every slot scans all of DepEdges with the map
// lookup of Expanded.Data, communication energy visits all N routers, and
// the schedule order layers a task.Graph built from the existing slots.
// FuzzEvaluationKernel holds the list-based kernel to it bit for bit.

// refScheduleOrder layers the existing slots through a standalone graph.
func refScheduleOrder(s *System, d *Deployment) ([]int, error) {
	e := s.exp
	idOf := make([]int, e.Size())
	g := task.New()
	var slots []int
	for i := range idOf {
		idOf[i] = -1
		if d.Exists[i] {
			idOf[i] = g.AddTask("", e.WCEC(i), e.Deadline(i))
			slots = append(slots, i)
		}
	}
	for _, pair := range e.DepEdges() {
		if a, b := idOf[pair[0]], idOf[pair[1]]; a >= 0 && b >= 0 {
			g.AddEdge(a, b, e.Data(pair[0], pair[1]))
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	layers, err := g.Layers()
	if err != nil {
		return nil, err
	}
	var order []int
	for _, layer := range layers {
		for _, v := range layer {
			order = append(order, slots[v])
		}
	}
	return order, nil
}

// refCommTime is t_i^comm over the selected paths, scanning every edge.
func refCommTime(s *System, d *Deployment, i int) float64 {
	if !d.Exists[i] {
		return 0
	}
	var t float64
	for _, pair := range s.exp.DepEdges() {
		a, b := pair[0], pair[1]
		if b != i || !d.Exists[a] {
			continue
		}
		beta, gamma := d.Proc[a], d.Proc[b]
		if beta == gamma {
			continue
		}
		t += s.exp.Data(a, b) * s.Mesh.TimePerByte(beta, gamma, d.PathSel[beta][gamma])
	}
	return t
}

// refAvgCommTime is t_i^comm averaged over the candidate paths.
func refAvgCommTime(s *System, d *Deployment, i int) float64 {
	var t float64
	for _, pair := range s.exp.DepEdges() {
		a, b := pair[0], pair[1]
		if b != i || !d.Exists[a] {
			continue
		}
		beta, gamma := d.Proc[a], d.Proc[b]
		if beta == gamma {
			continue
		}
		var avg float64
		for rho := 0; rho < noc.NumPaths; rho++ {
			avg += s.Mesh.TimePerByte(beta, gamma, rho)
		}
		t += s.exp.Data(a, b) * avg / noc.NumPaths
	}
	return t
}

// refReschedule list-schedules d in order, scanning every edge per slot.
func refReschedule(s *System, d *Deployment, order []int) float64 {
	procFree := make([]float64, s.Mesh.N())
	var makespan float64
	for _, i := range order {
		ready := 0.0
		for _, pair := range s.exp.DepEdges() {
			a, b := pair[0], pair[1]
			if b != i || !d.Exists[a] {
				continue
			}
			if e := d.End(s, a); e > ready {
				ready = e
			}
		}
		ready += refCommTime(s, d, i)
		k := d.Proc[i]
		start := math.Max(ready, procFree[k])
		d.Start[i] = start
		end := start + s.ExecTime(i, d.Level[i])
		procFree[k] = end
		if end > makespan {
			makespan = end
		}
	}
	return makespan
}

// refMetrics computes the metrics with communication energy summed over
// all N routers of every edge.
func refMetrics(s *System, d *Deployment) (*Metrics, error) {
	if err := checkStructure(s, d); err != nil {
		return nil, err
	}
	n := s.Mesh.N()
	m := &Metrics{
		CompEnergy: make([]float64, n),
		CommEnergy: make([]float64, n),
		Dups:       d.DupCount(),
	}
	perProc := make([]int, n)
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
	for _, pair := range s.exp.DepEdges() {
		a, b := pair[0], pair[1]
		if !d.Exists[a] || !d.Exists[b] {
			continue
		}
		beta, gamma := d.Proc[a], d.Proc[b]
		if beta == gamma {
			continue
		}
		rho := d.PathSel[beta][gamma]
		bytes := s.exp.Data(a, b)
		for k := 0; k < n; k++ {
			m.CommEnergy[k] += bytes * s.Mesh.EnergyPerByte(beta, gamma, k, rho)
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

// refFeasible reports whether constraints (4)–(9) hold, checking
// precedence edge by edge and overlaps per processor through a map.
func refFeasible(s *System, d *Deployment) bool {
	for i := 0; i < s.Graph.M(); i++ {
		ri := s.Reliability(i, d.Level[i])
		dup := i + s.Graph.M()
		if d.Exists[dup] {
			if reliability.Combined(ri, s.Reliability(dup, d.Level[dup])) < s.Rel.Rth-1e-12 {
				return false
			}
		} else if ri < s.Rel.Rth-1e-12 {
			return false
		}
	}
	for i := 0; i < s.exp.Size(); i++ {
		if !d.Exists[i] {
			continue
		}
		if s.ExecTime(i, d.Level[i]) > s.exp.Deadline(i)+timeTol || d.End(s, i) > s.H+timeTol {
			return false
		}
	}
	for _, pair := range s.exp.DepEdges() {
		a, b := pair[0], pair[1]
		if d.Exists[a] && d.Exists[b] && d.Start[b]+timeTol < d.End(s, a)+refCommTime(s, d, b) {
			return false
		}
	}
	type ival struct{ s, e float64 }
	perProc := map[int][]ival{}
	for i := 0; i < s.exp.Size(); i++ {
		if d.Exists[i] {
			perProc[d.Proc[i]] = append(perProc[d.Proc[i]], ival{d.Start[i], d.End(s, i)})
		}
	}
	for _, ivs := range perProc {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].s+timeTol < ivs[i-1].e {
				return false
			}
		}
	}
	return true
}

// fuzzInstance builds a random W×H instance with M tasks: a DAG over a
// random permutation of the ids (so the id order is not topological),
// some zero-byte edges, some tight deadlines, and a horizon that some
// schedules miss. Half the instances have a threshold every level meets,
// so checks (6) and (7) are not masked by (4)–(5).
func fuzzInstance(rng *rand.Rand, w, h, m int) (*System, error) {
	plat := platform.Default(w * h)
	mesh, err := noc.NewMesh(noc.Config{
		W: w, H: h, Link: noc.DefaultLinkParams(), Jitter: 0.25, Seed: rng.Int63(),
	})
	if err != nil {
		return nil, err
	}
	g := task.New()
	for i := 0; i < m; i++ {
		g.AddTask("", 0.5e6+2e6*rng.Float64(), 2e-4+4e-3*rng.Float64())
	}
	perm := rng.Perm(m)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if rng.Intn(3) == 0 {
				bytes := float64(rng.Intn(64 << 10))
				if rng.Intn(5) == 0 {
					bytes = 0
				}
				g.AddEdge(perm[i], perm[j], bytes)
			}
		}
	}
	rel := reliability.Default(plat.Fmin(), plat.Fmax())
	if rng.Intn(2) == 0 {
		rel.Rth = 0.5
	}
	hz, err := Horizon(plat, mesh, g, rel, 0.8+2*rng.Float64())
	if err != nil {
		return nil, err
	}
	return NewSystem(plat, mesh, g, rel, hz)
}

// checkKernel compares the list-based kernel with the reference on d.
func checkKernel(t *testing.T, s *System, d *Deployment, rng *rand.Rand) {
	t.Helper()
	order := ScheduleOrder(s, d)
	want, err := refScheduleOrder(s, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("ScheduleOrder = %v, reference %v", order, want)
	}
	got, ref := d.Clone(), d.Clone()
	mk, refMk := Reschedule(s, got, order), refReschedule(s, ref, want)
	sameBits(t, "makespan", mk, refMk)
	for i := range got.Start {
		sameBits(t, fmt.Sprintf("Start[%d]", i), got.Start[i], ref.Start[i])
		sameBits(t, fmt.Sprintf("CommTime(%d)", i), got.CommTime(s, i), refCommTime(s, got, i))
		if got.Exists[i] {
			sameBits(t, fmt.Sprintf("avgCommTime(%d)", i), avgCommTime(s, got, i), refAvgCommTime(s, got, i))
		}
	}
	m, err := ComputeMetrics(s, got)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := refMetrics(s, got)
	if err != nil {
		t.Fatal(err)
	}
	for k := range m.CompEnergy {
		sameBits(t, fmt.Sprintf("CompEnergy[%d]", k), m.CompEnergy[k], rm.CompEnergy[k])
		sameBits(t, fmt.Sprintf("CommEnergy[%d]", k), m.CommEnergy[k], rm.CommEnergy[k])
	}
	sameBits(t, "MaxEnergy", m.MaxEnergy, rm.MaxEnergy)
	sameBits(t, "SumEnergy", m.SumEnergy, rm.SumEnergy)
	sameBits(t, "Phi", m.Phi, rm.Phi)
	sameBits(t, "Makespan", m.Makespan, rm.Makespan)
	if m.MMax != rm.MMax || m.Dups != rm.Dups {
		t.Fatalf("MMax/Dups = %d/%d, reference %d/%d", m.MMax, m.Dups, rm.MMax, rm.Dups)
	}
	if ok := CheckConstraints(s, got) == nil; ok != refFeasible(s, got) {
		t.Fatalf("CheckConstraints feasible = %v, reference %v", ok, !ok)
	}
	// Slot b moved off the list schedule exercises the precedence and
	// overlap checks: to a random time, to the end of its latest
	// predecessor (before the data arrives), and onto slot c.
	b, c := order[rng.Intn(len(order))], order[rng.Intn(len(order))]
	predEnd := 0.0
	for _, pair := range s.exp.DepEdges() {
		if pair[1] == b && got.Exists[pair[0]] {
			predEnd = math.Max(predEnd, got.End(s, pair[0]))
		}
	}
	for _, move := range []struct {
		proc  int
		start float64
	}{
		{got.Proc[b], mk * rng.Float64()},
		{got.Proc[b], predEnd},
		{got.Proc[c], got.Start[c]},
	} {
		p := got.Clone()
		p.Proc[b], p.Start[b] = move.proc, move.start
		if ok := CheckConstraints(s, p) == nil; ok != refFeasible(s, p) {
			t.Fatalf("slot %d moved to processor %d at %g: CheckConstraints feasible = %v, reference %v",
				b, p.Proc[b], move.start, ok, !ok)
		}
	}
}

func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v, reference %v", what, got, want)
	}
}

// FuzzEvaluationKernel applies random moves — processor, level,
// duplicate on/off, path flip — to a random deployment of a random 2×2 to
// 4×4 instance and compares, after each move, the schedule order, start
// times, makespan, comm times, metrics and feasibility with the reference
// kernel above, bit for bit.
func FuzzEvaluationKernel(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(4), uint8(20))
	f.Add(int64(2), uint8(1), uint8(1), uint8(8), uint8(30))
	f.Add(int64(3), uint8(2), uint8(2), uint8(12), uint8(40))
	f.Add(int64(4), uint8(2), uint8(0), uint8(1), uint8(10))
	f.Add(int64(5), uint8(0), uint8(2), uint8(15), uint8(25))
	// Found by fuzzing: a precedence violation only check (6) reports.
	f.Add(int64(-109), uint8(161), uint8(112), uint8(67), uint8(238))
	f.Fuzz(func(t *testing.T, seed int64, w, h, m, moves uint8) {
		rng := rand.New(rand.NewSource(seed))
		s, err := fuzzInstance(rng, 2+int(w%3), 2+int(h%3), 1+int(m%16))
		if err != nil {
			t.Fatal(err)
		}
		M, n, L := s.Graph.M(), s.Mesh.N(), s.Plat.L()
		d := NewDeployment(s)
		for i := range d.Exists {
			d.Exists[i] = i < M || rng.Intn(2) == 0
			d.Level[i], d.Proc[i] = rng.Intn(L), rng.Intn(n)
		}
		for b := range d.PathSel {
			for g := range d.PathSel[b] {
				if b != g {
					d.PathSel[b][g] = rng.Intn(noc.NumPaths)
				}
			}
		}
		checkKernel(t, s, d, rng)
		for mv := 0; mv < 1+int(moves%48); mv++ {
			switch i := rng.Intn(len(d.Exists)); rng.Intn(4) {
			case 0:
				d.Proc[i] = rng.Intn(n)
			case 1:
				d.Level[i] = rng.Intn(L)
			case 2:
				dup := M + i%M
				d.Exists[dup] = !d.Exists[dup]
			default:
				b, g := rng.Intn(n), rng.Intn(n)
				if b != g {
					d.PathSel[b][g] = 1 - d.PathSel[b][g]
				}
			}
			checkKernel(t, s, d, rng)
		}
	})
}
