package archive

import (
	"strings"
	"testing"
	"time"
)

func sum(hash, solver string, obj float64, t time.Time) Summary {
	return Summary{
		Hash:           hash,
		Solver:         solver,
		Outcome:        OutcomeOK,
		Feasible:       true,
		FinalObjective: obj,
		RuntimeSeconds: 0.1,
		Time:           t,
	}
}

func TestBuildReportSolverMode(t *testing.T) {
	recs := []Summary{
		sum("instance-one", "repair", 10, at(1)),
		sum("instance-one", "anneal", 8, at(2)),
		sum("instance-two", "repair", 5, at(3)),
		sum("instance-two", "anneal", 6, at(4)),
		sum("instance-two", "anneal", 5.5, at(5)), // best-of folds repeats
		sum("only-repair", "repair", 1, at(6)),    // not shared: excluded
		sum("heuristic-noise", "heuristic", 1, at(7)),
	}
	md, err := BuildReport(recs, ReportOptions{SolverA: "repair", SolverB: "anneal"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# Solve archive report",
		"cohort A: solver repair",
		"cohort B: solver anneal",
		"shared instances: 2",
		"| instance-one | 10 | 8 |",
		"| instance-two | 5 | 5.5 |",
		"wins: A 1, B 1, ties 0",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("report missing %q:\n%s", want, md)
		}
	}
}

func TestBuildReportWindowMode(t *testing.T) {
	split := at(10)
	recs := []Summary{
		sum("h1", "repair", 10, at(1)), // before: cohort A
		sum("h1", "repair", 8, at(20)), // after: cohort B, improved
		sum("h2", "repair", 4, at(2)),
		sum("h2", "repair", 4, at(21)),
	}
	md, err := BuildReport(recs, ReportOptions{Split: split})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "wins: A 0, B 1, ties 1") {
		t.Fatalf("window report wins wrong:\n%s", md)
	}
	if !strings.Contains(md, "B wins the head-to-head") {
		t.Fatalf("verdict missing:\n%s", md)
	}
}

func TestBuildReportRowTruncation(t *testing.T) {
	var recs []Summary
	for i := 0; i < 30; i++ {
		h := "hash-" + string(rune('a'+i))
		recs = append(recs, sum(h, "repair", 10, at(i)), sum(h, "anneal", 9, at(i)))
	}
	md, err := BuildReport(recs, ReportOptions{SolverA: "repair", SolverB: "anneal", MaxRows: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "… and 25 more shared instances.") {
		t.Fatalf("truncation note missing:\n%s", md)
	}
	if got := strings.Count(md, "\n| hash-"); got != 5 {
		t.Fatalf("%d table rows, want 5", got)
	}
}

func TestBuildReportErrors(t *testing.T) {
	if _, err := BuildReport(nil, ReportOptions{}); err == nil {
		t.Fatal("no mode selected: want an error")
	}
	if _, err := BuildReport(nil, ReportOptions{SolverA: "repair"}); err == nil {
		t.Fatal("one solver only: want an error")
	}
	// No shared instances is a report, not an error.
	md, err := BuildReport([]Summary{sum("h1", "repair", 1, at(1))},
		ReportOptions{SolverA: "repair", SolverB: "anneal"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "No shared instances") {
		t.Fatalf("empty report body:\n%s", md)
	}
}

// TestBuildReportKeysByObjective: cohorts pair per instance and
// objective. Repair's BE 3.0 has no anneal partner; on ME anneal's 10
// beats repair's 12.
func TestBuildReportKeysByObjective(t *testing.T) {
	md, err := BuildReport(history(objectiveMix()...), ReportOptions{SolverA: "repair", SolverB: "anneal"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"shared instances: 1",
		"| h1 | 12 | 10 | -16.67% | B | me |",
		"wins: A 0, B 1, ties 0",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("report missing %q:\n%s", want, md)
		}
	}
}
