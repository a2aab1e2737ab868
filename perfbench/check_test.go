package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strconv"
	"testing"

	"nocdeploy/internal/core"
	"nocdeploy/internal/exp"
	"nocdeploy/internal/spec"
)

// servedAnswer solves one serve-cold input the way the service does and
// returns its system and the JSON body the service would send.
func servedAnswer(t *testing.T) (*core.System, spec.Deployment, []byte) {
	t.Helper()
	inputs, err := genInputs(serveCold, rand.New(rand.NewSource(7)), 1, map[uint64]bool{})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := inputs[0].instance()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := inst.Build()
	if err != nil {
		t.Fatal(err)
	}
	d, info, err := core.Heuristic(sys, core.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.ComputeMetrics(sys, d)
	if err != nil {
		t.Fatal(err)
	}
	sd := spec.FromDeployment(d, m, info)
	body, err := json.Marshal(sd)
	if err != nil {
		t.Fatal(err)
	}
	return sys, sd, body
}

func TestCheckAnswerAcceptsServedAnswer(t *testing.T) {
	sys, sd, body := servedAnswer(t)
	v := checkAnswer(sys, body, nil)
	if v.err != nil {
		t.Fatalf("a correct answer failed its check: %v", v.err)
	}
	if v.feasible != sd.Feasible {
		t.Errorf("verdict feasible=%t, answer says %t", v.feasible, sd.Feasible)
	}
}

// Each kind of failure counts its request as exactly one failed op, and
// the ratios are taken over every attempted request.
func TestFailureAccounting(t *testing.T) {
	sys, sd, body := servedAnswer(t)
	good := checkAnswer(sys, body, nil)
	hdr := parseFeas(strconv.FormatBool(sd.Feasible))

	moved := sd
	moved.Proc = append([]int(nil), sd.Proc...)
	for i, ok := range moved.Exists {
		if ok {
			moved.Proc[i] = sys.Mesh.N() + 3 // no such processor
			break
		}
	}
	movedBody, err := json.Marshal(moved)
	if err != nil {
		t.Fatal(err)
	}
	wrongEnergy := sd
	wrongEnergy.MaxEnergy *= 1.5
	wrongBody, err := json.Marshal(wrongEnergy)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		r    reply
		v    verdict
		fail bool
	}{
		{"ok", reply{status: http.StatusOK, feas: hdr}, good, false},
		{"429", reply{status: http.StatusTooManyRequests}, verdict{}, true},
		{"5xx", reply{status: http.StatusInternalServerError}, verdict{}, true},
		{"transport", reply{}, verdict{}, true},
		{"invalid processor", reply{status: http.StatusOK, feas: hdr}, checkAnswer(sys, movedBody, nil), true},
		{"maxEnergy mismatch", reply{status: http.StatusOK, feas: hdr}, checkAnswer(sys, wrongBody, nil), true},
		{"feasibility header mismatch", reply{status: http.StatusOK, feas: parseFeas(strconv.FormatBool(!sd.Feasible))}, good, true},
		{"feasibility header missing", reply{status: http.StatusOK, feas: parseFeas("")}, good, true},
		{"undecodable", reply{status: http.StatusOK, feas: hdr}, checkAnswer(sys, []byte("{"), nil), true},
	}
	var all tally
	for _, c := range cases {
		var one tally
		one.account(c.r, c.v)
		all.account(c.r, c.v)
		wantFailed := 0
		if c.fail {
			wantFailed = 1
		}
		if got := one.attempted - one.passed; one.attempted != 1 || got != wantFailed {
			t.Errorf("%s: attempted %d, failed %d; want 1, %d", c.name, one.attempted, got, wantFailed)
		}
	}
	if all.attempted != len(cases) || all.passed != 1 {
		t.Errorf("tally attempted=%d passed=%d, want %d and 1", all.attempted, all.passed, len(cases))
	}
	if got, want := ratio(float64(all.passed), float64(all.attempted)), 1/float64(len(cases)); got != want {
		t.Errorf("success_ratio = %g, want %g (base: attempted)", got, want)
	}
	if all.firstErr == nil {
		t.Error("no failure reason recorded")
	}
}

// A portfolio answer must be no worse than the repaired heuristic.
func TestCheckAnswerPortfolioGuarantee(t *testing.T) {
	sys, sd, body := servedAnswer(t)
	better := &core.SolveInfo{Feasible: sd.Feasible, Objective: sd.Objective * 0.5}
	if v := checkAnswer(sys, body, better); v.err == nil {
		t.Error("an answer worse than the repair reference passed")
	}
	same := &core.SolveInfo{Feasible: sd.Feasible, Objective: sd.Objective}
	if v := checkAnswer(sys, body, same); v.err != nil {
		t.Errorf("an answer equal to the repair reference failed: %v", v.err)
	}
}

func TestFigureChecks(t *testing.T) {
	ok := &exp.Table{Header: []string{"M", "t", "feas", "E(x)"}, Rows: [][]string{{"2", "0.12s", "100.0%", "0.002"}, {"3", "1.5ms", "1/4", "0"}}}
	if err := checkTable(ok, nil); err != nil {
		t.Errorf("good table failed: %v", err)
	}
	for name, bad := range map[string]*exp.Table{
		"no header": {Rows: [][]string{{"1"}}},
		"no rows":   {Header: []string{"M"}},
		"ragged":    {Header: []string{"M", "t"}, Rows: [][]string{{"1"}}},
	} {
		if checkTable(bad, nil) == nil {
			t.Errorf("%s: check passed", name)
		}
	}
	if checkTable(nil, errors.New("boom")) == nil {
		t.Error("runner error passed")
	}

	other := &exp.Table{Header: ok.Header, Rows: [][]string{{"2", "0.5s", "100.0%", "0.002"}, {"3", "2ms", "1/4", "0"}}}
	if maskedTable(ok) != maskedTable(other) {
		t.Error("tables differing only in runtimes compare unequal")
	}
	other.Rows[1][2] = "2/4"
	if maskedTable(ok) == maskedTable(other) {
		t.Error("tables differing in a feasibility cell compare equal")
	}

	feas, energies := suiteAnswers([]*exp.Table{ok})
	if len(feas) != 2 || feas[0] != 1 || feas[1] != 0.25 {
		t.Errorf("feasibility cells = %v, want [1 0.25]", feas)
	}
	if len(energies) != 1 || energies[0] != 2 {
		t.Errorf("energy cells = %v mJ, want [2] (zero cells are infeasible and skipped)", energies)
	}
}

// Warm-up requests and serve-hot's pairs do not depend on --seed, timed
// requests of a miss workload never repeat a warm-up instance (even at
// --seed fixedSeed), and serve-hot asks every pair equally often.
func TestServeInputs(t *testing.T) {
	body := func(in []serveInput, idx []int) []string {
		out := make([]string, len(idx))
		for i, j := range idx {
			out[i] = string(in[j].body)
		}
		return out
	}
	o := options{seconds: 1}
	var warm0 []string
	for _, seed := range []int64{fixedSeed, 2} {
		o.seed = seed
		inputs, warm, order, err := serveInputs(o, serveCold)
		if err != nil {
			t.Fatal(err)
		}
		w := body(inputs, warm)
		if warm0 == nil {
			warm0 = w
		} else if !reflect.DeepEqual(w, warm0) {
			t.Errorf("seed %d: warm-up set depends on the seed", seed)
		}
		seen := map[string]bool{}
		for _, b := range w {
			seen[b] = true
		}
		for _, b := range body(inputs, order) {
			if seen[b] {
				t.Fatalf("seed %d: a request repeats an earlier instance", seed)
			}
			seen[b] = true
		}
	}

	o.seed = 5
	inputs, warm, order, err := serveInputs(o, serveHot)
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) != serveHot.pairs || len(warm) != serveHot.pairs || len(order)%serveHot.pairs != 0 {
		t.Fatalf("serve-hot: %d inputs, %d warm-up, %d requests", len(inputs), len(warm), len(order))
	}
	count := make([]int, serveHot.pairs)
	for _, i := range order {
		count[i]++
	}
	for i, c := range count {
		if c != len(order)/serveHot.pairs {
			t.Fatalf("serve-hot: pair %d asked %d times of %d", i, c, len(order))
		}
	}
}

// A traced pair counts every op of both phases; a traced answer that
// passed its own checks but differs from the untraced one fails exactly
// once, and obs.trace_overhead compares the two walls.
func TestMergePair(t *testing.T) {
	untraced := &report{
		Result:  result{Correct: false, Attempted: 4, Failed: 1},
		WallS:   10,
		Answers: []uint64{1, 2, 3, 0},
		Passed:  []bool{true, true, true, false},
	}
	traced := &report{
		Result:  result{Correct: false, Attempted: 4, Failed: 1, Metrics: map[string]metric{"lp.pivots": {7, "count"}}},
		WallS:   12,
		Answers: []uint64{1, 9, 8, 0},
		Passed:  []bool{true, true, false, true},
	}
	res, err := mergePair(untraced, traced)
	if err != nil {
		t.Fatal(err)
	}
	// ops: 8; failed: 1 untraced + 1 traced + op 1 (differs and passed).
	if res.Attempted != 8 || res.Failed != 3 || res.Correct {
		t.Errorf("attempted %d failed %d correct %t; want 8, 3, false", res.Attempted, res.Failed, res.Correct)
	}
	if got := res.Metrics["obs.trace_overhead"].Value; math.Abs(got-0.2) > 1e-12 {
		t.Errorf("obs.trace_overhead = %g, want 0.2", got)
	}
	if _, ok := traced.Result.Metrics["obs.trace_overhead"]; ok {
		t.Error("mergePair changed the traced report's metrics")
	}
	if _, err := mergePair(&report{Answers: []uint64{1}}, traced); err == nil {
		t.Error("phases with different op counts merged")
	}
}
