package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"nocdeploy/internal/archive"
	"nocdeploy/internal/service"
)

// startArchivedServer is startServer plus a solve archive in a temporary
// directory, so history/report/advise have something to query.
func startArchivedServer(t *testing.T) (*client, *bytes.Buffer, func()) {
	t.Helper()
	arch, err := archive.Open(archive.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Archive: arch})
	srv := httptest.NewServer(svc.Handler())
	var out bytes.Buffer
	c := &client{base: srv.URL, out: &out}
	return c, &out, func() {
		srv.Close()
		svc.Close()
	}
}

func TestHistoryReportAdviseEndToEnd(t *testing.T) {
	c, out, stop := startArchivedServer(t)
	defer stop()
	in := writeInstanceFile(t)

	for _, solver := range []string{"repair", "heuristic"} {
		if err := cmdSolve(c, []string{"-in", in, "-solver", solver, "-out", os.DevNull}); err != nil {
			t.Fatalf("solve -solver %s: %v", solver, err)
		}
	}

	// history: both solves in the table, newest first.
	out.Reset()
	if err := cmdHistory(c, nil); err != nil {
		t.Fatalf("history: %v", err)
	}
	table := out.String()
	for _, want := range []string{"ID", "SOLVER", "repair", "heuristic", "3", "2x1", "ok"} {
		if !strings.Contains(table, want) {
			t.Fatalf("history table missing %q:\n%s", want, table)
		}
	}
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if len(lines) != 3 { // header + 2 records
		t.Fatalf("history rows = %d, want 3:\n%s", len(lines), table)
	}
	if !strings.HasPrefix(lines[1], "a2") || !strings.HasPrefix(lines[2], "a1") {
		t.Fatalf("history not newest-first:\n%s", table)
	}

	// history -solver filter and -json output.
	out.Reset()
	if err := cmdHistory(c, []string{"-solver", "repair", "-json"}); err != nil {
		t.Fatal(err)
	}
	var recs []archive.Summary
	if err := json.Unmarshal(out.Bytes(), &recs); err != nil {
		t.Fatalf("history -json: %v\n%s", err, out.Bytes())
	}
	if len(recs) != 1 || recs[0].Solver != "repair" {
		t.Fatalf("history -solver repair -json: %+v", recs)
	}

	// report: rendered locally from the fetched summaries.
	out.Reset()
	if err := cmdReport(c, []string{"-solvers", "repair,heuristic"}); err != nil {
		t.Fatalf("report: %v", err)
	}
	md := out.String()
	for _, want := range []string{"# Solve archive report", "cohort A: solver repair", "## Summary"} {
		if !strings.Contains(md, want) {
			t.Fatalf("report missing %q:\n%s", want, md)
		}
	}
	if err := cmdReport(c, nil); err == nil {
		t.Fatal("report with no mode accepted")
	}

	// advise: the exact instance was just solved by two solvers, so the
	// decision comes from the instance tier.
	out.Reset()
	if err := cmdAdvise(c, []string{"-in", in}); err != nil {
		t.Fatalf("advise: %v", err)
	}
	advice := out.String()
	if !strings.Contains(advice, "basis:      instance") {
		t.Fatalf("advise basis:\n%s", advice)
	}
	if !strings.Contains(advice, "solver:     repair") && !strings.Contains(advice, "solver:     heuristic") {
		t.Fatalf("advise solver:\n%s", advice)
	}

	// solver=auto round-trips through the CLI too.
	out.Reset()
	if err := cmdSolve(c, []string{"-in", in, "-solver", "auto", "-seed", "9", "-out", os.DevNull}); err != nil {
		t.Fatalf("solve -solver auto: %v", err)
	}
}

func TestHistoryAgainstArchivelessServer(t *testing.T) {
	c, out, stop := startServer(t)
	defer stop()

	if err := cmdHistory(c, nil); err == nil || !strings.Contains(err.Error(), "archive") {
		t.Fatalf("history without archive: err = %v, want the server's disabled notice", err)
	}

	// advise still answers (default tier), even with the archive off.
	in := writeInstanceFile(t)
	out.Reset()
	if err := cmdAdvise(c, []string{"-in", in}); err != nil {
		t.Fatalf("advise without archive: %v", err)
	}
	if !strings.Contains(out.String(), "basis:      default") {
		t.Fatalf("advise basis without archive:\n%s", out.String())
	}
}

func TestHistoryEmptyArchive(t *testing.T) {
	c, out, stop := startArchivedServer(t)
	defer stop()
	if err := cmdHistory(c, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(no archived solves match)") {
		t.Fatalf("empty history output:\n%s", out.String())
	}
}
