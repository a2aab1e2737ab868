package engine_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"nocdeploy/internal/core"
	"nocdeploy/internal/engine"
	"nocdeploy/internal/exp"
)

// pinned is one solver result of TestEvaluationPinned: the objective's
// bits and an FNV-1a hash of the whole deployment.
type pinned struct {
	name string
	obj  uint64
	hash uint64
}

// deploymentHash is FNV-1a over every field of d, slot by slot (Exists,
// Level, Proc, the bits of Start), then the PathSel matrix row by row.
func deploymentHash(d *core.Deployment) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		_, _ = h.Write(b[:])
	}
	for i, ex := range d.Exists {
		var e uint64
		if ex {
			e = 1
		}
		put(e)
		put(uint64(d.Level[i]))
		put(uint64(d.Proc[i]))
		put(math.Float64bits(d.Start[i]))
	}
	for _, row := range d.PathSel {
		for _, rho := range row {
			put(uint64(rho))
		}
	}
	return h.Sum64()
}

// pinnedRuns runs every evaluation-driven solver on one instance under one
// objective and path mode: the heuristic and repair (both communication
// estimates), anneal, Improve and ImprovePaths from the repair result,
// and a portfolio of the two destroy-and-repair operators without exact
// polishing.
func pinnedRuns(t *testing.T, s *core.System, opts core.Options, seed int64) []pinned {
	t.Helper()
	var out []pinned
	add := func(name string, d *core.Deployment, obj float64) {
		if d == nil {
			t.Fatalf("%s: nil deployment", name)
		}
		out = append(out, pinned{name, math.Float64bits(obj), deploymentHash(d)})
	}
	constant := opts
	constant.CommEstimate = core.EstimateConstant
	for _, c := range []struct {
		suffix string
		opts   core.Options
	}{{"", opts}, {"-const", constant}} {
		d, info, err := core.Heuristic(s, c.opts, seed)
		if err != nil {
			t.Fatal(err)
		}
		add("heuristic"+c.suffix, d, info.Objective)
		d, info, err = core.HeuristicWithRepair(s, c.opts, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		add("repair"+c.suffix, d, info.Objective)
	}
	d, info, err := core.Anneal(s, opts, core.AnnealOptions{Iters: 300, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	add("anneal", d, info.Objective)

	rd, _, err := core.HeuristicWithRepair(s, opts, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	id, iobj, _ := core.Improve(s, rd, opts, 0)
	add("improve", id, iobj)
	pd, pobj := core.ImprovePaths(s, rd, opts)
	add("paths", pd, pobj)

	eo := engine.Options{Seed: seed, Rounds: 3, Workers: 2, NodeBudget: -1}
	if eo.Operators, err = engine.BuildOperators([]string{"region", "subtree"}, eo); err != nil {
		t.Fatal(err)
	}
	d, info, err = engine.SolveCtx(context.Background(), s, opts, eo)
	if err != nil {
		t.Fatal(err)
	}
	add("portfolio", d, info.Objective)
	return out
}

// TestEvaluationPinned pins, bit for bit, what every solver that schedules
// and scores deployments returns: objective bits and a hash of the whole
// deployment, on three mesh sizes under both objectives and both path
// modes. Work on the evaluation path (scheduling, comm times, metrics,
// move application) must leave every entry unchanged; no benchmark
// workload runs the region and subtree operators, so this is their only
// bit-exact guard.
func TestEvaluationPinned(t *testing.T) {
	instances := []struct {
		name string
		p    exp.InstanceParams
	}{
		{"2x2-M6", exp.InstanceParams{MeshW: 2, MeshH: 2, M: 6, L: 3, Alpha: 1.2, Seed: 21}},
		{"3x3-M10", exp.InstanceParams{MeshW: 3, MeshH: 3, M: 10, L: 4, Alpha: 1.3, Seed: 22}},
		{"4x4-M12", exp.InstanceParams{MeshW: 4, MeshH: 4, M: 12, L: 6, Alpha: 1.3, Seed: 23}},
	}
	var got []pinned
	for _, inst := range instances {
		s, err := exp.Build(inst.p)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range []core.Objective{core.BalanceEnergy, core.MinimizeEnergy} {
			for _, single := range []bool{false, true} {
				mode := "multi"
				if single {
					mode = "single"
				}
				prefix := fmt.Sprintf("%s/%v/%s/", inst.name, obj, mode)
				for _, r := range pinnedRuns(t, s, core.Options{Objective: obj, SinglePath: single}, inst.p.Seed) {
					r.name = prefix + r.name
					got = append(got, r)
				}
			}
		}
	}

	if len(got) != len(pinnedWant) {
		t.Errorf("%d results, %d pinned", len(got), len(pinnedWant))
	}
	mismatch := false
	for i := range min(len(got), len(pinnedWant)) {
		if got[i] != pinnedWant[i] {
			mismatch = true
			t.Errorf("%s: got obj %#016x hash %#016x, pinned %s obj %#016x hash %#016x",
				got[i].name, got[i].obj, got[i].hash, pinnedWant[i].name, pinnedWant[i].obj, pinnedWant[i].hash)
		}
	}
	if mismatch || len(got) != len(pinnedWant) {
		var b strings.Builder
		for _, r := range got {
			fmt.Fprintf(&b, "\t{%q, %#016x, %#016x},\n", r.name, r.obj, r.hash)
		}
		t.Logf("results as Go literals:\n%s", b.String())
	}
}

// pinnedWant is the recorded output of pinnedRuns, in order. An entry that
// differs means a solver decision changed; a faster evaluation must not
// change any.
var pinnedWant = []pinned{
	{"2x2-M6/BE/multi/heuristic", 0x3f6a5fce9948cf05, 0x361e9bee88a5d3f5},
	{"2x2-M6/BE/multi/repair", 0x3f6a5fce9948cf05, 0x361e9bee88a5d3f5},
	{"2x2-M6/BE/multi/heuristic-const", 0x3f6a613ef4ad36c8, 0x72c9fa1dabbbaaa1},
	{"2x2-M6/BE/multi/repair-const", 0x3f6a613ef4ad36c8, 0x72c9fa1dabbbaaa1},
	{"2x2-M6/BE/multi/anneal", 0x3f6a5fce9948cf05, 0xc47edab2bb681104},
	{"2x2-M6/BE/multi/improve", 0x3f6a5fce9948cf05, 0x361e9bee88a5d3f5},
	{"2x2-M6/BE/multi/paths", 0x3f6a5fce9948cf05, 0x361e9bee88a5d3f5},
	{"2x2-M6/BE/multi/portfolio", 0x3f6a5fce9948cf05, 0x361e9bee88a5d3f5},
	{"2x2-M6/BE/single/heuristic", 0x3f6a5fce9948cf05, 0x361e9bee88a5d3f5},
	{"2x2-M6/BE/single/repair", 0x3f6a5fce9948cf05, 0x361e9bee88a5d3f5},
	{"2x2-M6/BE/single/heuristic-const", 0x3f6a613ef4ad36c8, 0x72c9fa1dabbbaaa1},
	{"2x2-M6/BE/single/repair-const", 0x3f6a613ef4ad36c8, 0x72c9fa1dabbbaaa1},
	{"2x2-M6/BE/single/anneal", 0x3f6a5fce9948cf05, 0xc47edab2bb681104},
	{"2x2-M6/BE/single/improve", 0x3f6a5fce9948cf05, 0x361e9bee88a5d3f5},
	{"2x2-M6/BE/single/paths", 0x3f6a5fce9948cf05, 0x361e9bee88a5d3f5},
	{"2x2-M6/BE/single/portfolio", 0x3f6a5fce9948cf05, 0x361e9bee88a5d3f5},
	{"2x2-M6/ME/multi/heuristic", 0x3f8541761c1daea5, 0x3123a2daeb3e5051},
	{"2x2-M6/ME/multi/repair", 0x3f8dc9c5554128a9, 0x4c15644ff14670db},
	{"2x2-M6/ME/multi/heuristic-const", 0x3f8541bbaaec9384, 0x40a70a34d86ba762},
	{"2x2-M6/ME/multi/repair-const", 0x3f8dc9c5554128a9, 0x4c15644ff14670db},
	{"2x2-M6/ME/multi/anneal", 0x3f8541af3dc384cb, 0x028268f7553a0479},
	{"2x2-M6/ME/multi/improve", 0x3f8dc9c5554128a9, 0x4c15644ff14670db},
	{"2x2-M6/ME/multi/paths", 0x3f8dc9c5554128a9, 0x4c15644ff14670db},
	{"2x2-M6/ME/multi/portfolio", 0x3f8dca5d63cb4293, 0x0e661385984364ca},
	{"2x2-M6/ME/single/heuristic", 0x3f8541761c1daea5, 0x3123a2daeb3e5051},
	{"2x2-M6/ME/single/repair", 0x3f8dc9c5554128a9, 0x4c15644ff14670db},
	{"2x2-M6/ME/single/heuristic-const", 0x3f8541bbaaec9384, 0x40a70a34d86ba762},
	{"2x2-M6/ME/single/repair-const", 0x3f8dc9c5554128a9, 0x4c15644ff14670db},
	{"2x2-M6/ME/single/anneal", 0x3f8541af3dc384cb, 0x028268f7553a0479},
	{"2x2-M6/ME/single/improve", 0x3f8dc9c5554128a9, 0x4c15644ff14670db},
	{"2x2-M6/ME/single/paths", 0x3f8dc9c5554128a9, 0x4c15644ff14670db},
	{"2x2-M6/ME/single/portfolio", 0x3f8dca5d63cb4293, 0x0e661385984364ca},
	{"3x3-M10/BE/multi/heuristic", 0x3f7030c8c7506dfb, 0x7a59204b2938ab32},
	{"3x3-M10/BE/multi/repair", 0x3f7030c8c7506dfb, 0x7a59204b2938ab32},
	{"3x3-M10/BE/multi/heuristic-const", 0x3f7030c316e7f220, 0x2494478fdb00ce55},
	{"3x3-M10/BE/multi/repair-const", 0x3f7030c316e7f220, 0x2494478fdb00ce55},
	{"3x3-M10/BE/multi/anneal", 0x3f6cf009af4c6893, 0x44dfca0aea939505},
	{"3x3-M10/BE/multi/improve", 0x3f6a5c038cc6ec20, 0xe5fd3234e82a1f8c},
	{"3x3-M10/BE/multi/paths", 0x3f7030c8c7506dfb, 0x7a59204b2938ab32},
	{"3x3-M10/BE/multi/portfolio", 0x3f6a6edcda557ac9, 0x88bf6859ffa355b4},
	{"3x3-M10/BE/single/heuristic", 0x3f7030c8c7506dfb, 0x7a59204b2938ab32},
	{"3x3-M10/BE/single/repair", 0x3f7030c8c7506dfb, 0x7a59204b2938ab32},
	{"3x3-M10/BE/single/heuristic-const", 0x3f7030c316e7f220, 0x2494478fdb00ce55},
	{"3x3-M10/BE/single/repair-const", 0x3f7030c316e7f220, 0x2494478fdb00ce55},
	{"3x3-M10/BE/single/anneal", 0x3f6cf009af4c6893, 0x44dfca0aea939505},
	{"3x3-M10/BE/single/improve", 0x3f6a5c038cc6ec20, 0xe5fd3234e82a1f8c},
	{"3x3-M10/BE/single/paths", 0x3f7030c8c7506dfb, 0x7a59204b2938ab32},
	{"3x3-M10/BE/single/portfolio", 0x3f6a6edcda557ac9, 0x88bf6859ffa355b4},
	{"3x3-M10/ME/multi/heuristic", 0x3f992429a919e981, 0xaaacead5c78bbdfd},
	{"3x3-M10/ME/multi/repair", 0x3f956ea3ba35e3a7, 0x94289113f96af17b},
	{"3x3-M10/ME/multi/heuristic-const", 0x3f992436dac48e3b, 0x7801e9fdc0d749b7},
	{"3x3-M10/ME/multi/repair-const", 0x3f956ea599f1c049, 0xf972fc8c5d19f793},
	{"3x3-M10/ME/multi/anneal", 0x3f911fbee9093a91, 0xf2a88f35d75cd7c3},
	{"3x3-M10/ME/multi/improve", 0x3f956ea3ba35e3a7, 0x94289113f96af17b},
	{"3x3-M10/ME/multi/paths", 0x3f956ea3ba35e3a7, 0x94289113f96af17b},
	{"3x3-M10/ME/multi/portfolio", 0x3f956ea3ba35e3a7, 0x94289113f96af17b},
	{"3x3-M10/ME/single/heuristic", 0x3f992429a919e981, 0xaaacead5c78bbdfd},
	{"3x3-M10/ME/single/repair", 0x3f956ea3ba35e3a7, 0x2d2e43676378bcda},
	{"3x3-M10/ME/single/heuristic-const", 0x3f992436dac48e3b, 0x7801e9fdc0d749b7},
	{"3x3-M10/ME/single/repair-const", 0x3f956ea599f1c049, 0xf972fc8c5d19f793},
	{"3x3-M10/ME/single/anneal", 0x3f911fbee9093a91, 0x29763d63f672e262},
	{"3x3-M10/ME/single/improve", 0x3f956ea3ba35e3a7, 0x2d2e43676378bcda},
	{"3x3-M10/ME/single/paths", 0x3f956ea3ba35e3a7, 0x2d2e43676378bcda},
	{"3x3-M10/ME/single/portfolio", 0x3f956ea3ba35e3a7, 0x2d2e43676378bcda},
	{"4x4-M12/BE/multi/heuristic", 0x3f6c7b4652dd0e60, 0x4d09eeee55478e56},
	{"4x4-M12/BE/multi/repair", 0x3f6c7b4652dd0e60, 0x4d09eeee55478e56},
	{"4x4-M12/BE/multi/heuristic-const", 0x3f6c7a61979ca330, 0x7e321c546f0fa58d},
	{"4x4-M12/BE/multi/repair-const", 0x3f6c7a61979ca330, 0x7e321c546f0fa58d},
	{"4x4-M12/BE/multi/anneal", 0x3f67aeaae0f27ef8, 0xd806939877382efc},
	{"4x4-M12/BE/multi/improve", 0x3f63735a99a6118d, 0x4d6e6ab89a6fe67b},
	{"4x4-M12/BE/multi/paths", 0x3f6c7b4652dd0e60, 0x4d09eeee55478e56},
	{"4x4-M12/BE/multi/portfolio", 0x3f6aa00d1af18ba2, 0x2437c0bcc60c2e0b},
	{"4x4-M12/BE/single/heuristic", 0x3f6c7b4652dd0e60, 0x4d09eeee55478e56},
	{"4x4-M12/BE/single/repair", 0x3f6c7b4652dd0e60, 0x4d09eeee55478e56},
	{"4x4-M12/BE/single/heuristic-const", 0x3f6c7be2eb0e2902, 0xb50d17ce07c90551},
	{"4x4-M12/BE/single/repair-const", 0x3f6c7be2eb0e2902, 0xb50d17ce07c90551},
	{"4x4-M12/BE/single/anneal", 0x3f67aeaae0f27ef8, 0xd806939877382efc},
	{"4x4-M12/BE/single/improve", 0x3f63735a99a6118d, 0x4d6e6ab89a6fe67b},
	{"4x4-M12/BE/single/paths", 0x3f6c7b4652dd0e60, 0x4d09eeee55478e56},
	{"4x4-M12/BE/single/portfolio", 0x3f6aa00d1af18ba2, 0x2437c0bcc60c2e0b},
	{"4x4-M12/ME/multi/heuristic", 0x3f9fa5e1734fbbee, 0xe3366808eb7f7709},
	{"4x4-M12/ME/multi/repair", 0x3f9b4c6d88933a3d, 0xc78259043526575e},
	{"4x4-M12/ME/multi/heuristic-const", 0x3f9fa6486b5f45d2, 0x4830871e5d8e4ccf},
	{"4x4-M12/ME/multi/repair-const", 0x3f9b09a8214a68e5, 0xde6ddc9ba2aee697},
	{"4x4-M12/ME/multi/anneal", 0x3f950ec8b34504b0, 0xc8da88fac68c90c0},
	{"4x4-M12/ME/multi/improve", 0x3f9b4c6d88933a3d, 0xc78259043526575e},
	{"4x4-M12/ME/multi/paths", 0x3f9b4c6d88933a3d, 0xc78259043526575e},
	{"4x4-M12/ME/multi/portfolio", 0x3f9b4c4a8f6a6ddf, 0x50e9b2c8136939df},
	{"4x4-M12/ME/single/heuristic", 0x3f9fa5e1734fbbee, 0xe3366808eb7f7709},
	{"4x4-M12/ME/single/repair", 0x3f9b4c6d88933a3d, 0xd8846494b9e8b4df},
	{"4x4-M12/ME/single/heuristic-const", 0x3f9fa6486b5f45d2, 0x4830871e5d8e4ccf},
	{"4x4-M12/ME/single/repair-const", 0x3f9b09a8214a68e5, 0xde6ddc9ba2aee697},
	{"4x4-M12/ME/single/anneal", 0x3f950ec8b34504b0, 0xb8f3c5b54f926e01},
	{"4x4-M12/ME/single/improve", 0x3f9b4c6d88933a3d, 0xd8846494b9e8b4df},
	{"4x4-M12/ME/single/paths", 0x3f9b4c6d88933a3d, 0xd8846494b9e8b4df},
	{"4x4-M12/ME/single/portfolio", 0x3f9b4c4a8f6a6ddf, 0x3fe7a7378ea6dc5e},
}
