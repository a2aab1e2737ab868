package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"nocdeploy/internal/core"
)

// tinyCfg keeps smoke tests fast: tiny time limits still exercise every
// code path (solves simply come back unproven).
func tinyCfg() Config {
	return Config{Seed: 1, Quick: true, TimeLimit: 500 * time.Millisecond}
}

func TestBuildInstance(t *testing.T) {
	s, err := Build(smallOptimal(4, 1.0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Mesh.N() != 4 || s.Graph.M() != 4 || s.Plat.L() != 3 {
		t.Errorf("instance dims: N=%d M=%d L=%d", s.Mesh.N(), s.Graph.M(), s.Plat.L())
	}
	if s.H <= 0 {
		t.Errorf("horizon %g", s.H)
	}
	// Level trimming must preserve the frequency extremes.
	full, err := Build(paperScale(4, 1.0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Plat.Fmin() != full.Plat.Fmin() || s.Plat.Fmax() != full.Plat.Fmax() {
		t.Error("trimmed level table changed the frequency range")
	}
}

func TestBuildMuAndGammaKnobs(t *testing.T) {
	base, err := Build(smallOptimal(4, 1.0, 1))
	if err != nil {
		t.Fatal(err)
	}
	p := smallOptimal(4, 1.0, 1)
	p.MuScale = 10
	scaled, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Mesh.MaxEnergyPerByte() <= 5*base.Mesh.MaxEnergyPerByte() {
		t.Error("MuScale had no effect on communication energy")
	}
	p = smallOptimal(4, 1.0, 1)
	p.Gamma = 2.5
	stretched, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if stretched.Plat.Epsilon() <= base.Plat.Epsilon() {
		t.Error("Gamma had no effect on epsilon")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Note:   "a note",
		Header: []string{"col", "value"},
	}
	tbl.AddRow("a", "1")
	tbl.AddRow("bb", "22")
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "a note", "col", "bb"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// Each runner must produce a well-formed table even at tiny budgets.
func TestRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are slow")
	}
	for _, r := range append(Runners(), ExtensionRunners()...) {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			tbl, err := r.Run(tinyCfg())
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("runner produced no rows")
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Errorf("row width %d != header %d", len(row), len(tbl.Header))
				}
			}
		})
	}
}

// The heuristic-scale BE/ME comparison must show ME no worse in total
// energy (it directly minimizes that total, from the same decomposition).
func TestBEvsMEDirection(t *testing.T) {
	var be, me []float64
	for rep := int64(0); rep < 6; rep++ {
		s, err := Build(paperScale(18, 1.2, rep))
		if err != nil {
			t.Fatal(err)
		}
		dBE, iBE, err := core.Heuristic(s, core.Options{Objective: core.BalanceEnergy}, 1)
		if err != nil {
			t.Fatal(err)
		}
		dME, iME, err := core.Heuristic(s, core.Options{Objective: core.MinimizeEnergy}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !iBE.Feasible || !iME.Feasible {
			continue
		}
		mBE, err := core.ComputeMetrics(s, dBE)
		if err != nil {
			t.Fatal(err)
		}
		mME, err := core.ComputeMetrics(s, dME)
		if err != nil {
			t.Fatal(err)
		}
		be = append(be, mBE.SumEnergy)
		me = append(me, mME.SumEnergy)
	}
	if len(be) == 0 {
		t.Skip("no commonly-feasible instances at this scale")
	}
	if mean(me) > mean(be)*1.02 {
		t.Errorf("ME average total %g notably worse than BE %g", mean(me), mean(be))
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{Header: []string{"a", "b"}}
	tbl.AddRow("1", "x,y")
	tbl.AddRow("2", `say "hi"`)
	got := tbl.CSV()
	want := "a,b\n1,\"x,y\"\n2,\"say \"\"hi\"\"\"\n"
	if got != want {
		t.Errorf("CSV:\n%q\nwant\n%q", got, want)
	}
}

// TestFig2fBudgetStopsAreCensored: under a node budget that binds, exact
// solves stop short of the 1% gap, so Fig. 2(f) must count them as not
// proven, mark t(optimal) censored and name the budget in its note.
func TestFig2fBudgetStopsAreCensored(t *testing.T) {
	tb, err := RunFig2f(Config{Seed: 1, Quick: true, TimeLimit: time.Minute, MaxNodes: 1, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.Note, "capped at 1 branch & bound nodes") {
		t.Errorf("note %q does not name the node budget", tb.Note)
	}
	censored := 0
	for _, row := range tb.Rows {
		var proven, reps int
		if _, err := fmt.Sscanf(row[4], "%d/%d", &proven, &reps); err != nil {
			t.Fatalf("row %v: proven cell: %v", row, err)
		}
		if marked := strings.HasPrefix(row[1], ">"); marked != (proven < reps) {
			t.Errorf("row %v: t(optimal) censored %v with %d/%d proven", row, marked, proven, reps)
		}
		censored += reps - proven
	}
	if censored == 0 {
		t.Errorf("every solve counted as proven on a one-node budget:\n%v", tb.Rows)
	}
}
