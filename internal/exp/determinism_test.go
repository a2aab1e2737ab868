package exp

import (
	"bytes"
	"io"
	"reflect"
	"regexp"
	"testing"
	"time"

	"nocdeploy/internal/core"
	"nocdeploy/internal/obs"
)

// durationCell matches cells whose value is a measured wall-clock time
// (e.g. "0.123s", ">1.2s", "0.04ms", "1.2e+03ms"). These are the only
// table cells that legitimately differ between two runs of the same
// configuration: everything else — feasibility counts, energies, node
// counts, duplication counts — is a pure function of (Seed, point, trial)
// once solver termination is bounded by MaxNodes instead of wall clock.
var durationCell = regexp.MustCompile(`^>?[0-9]+(\.[0-9]+)?(e[+-]?[0-9]+)?(ns|µs|us|ms|s)$`)

// canonical renders the table with measured-runtime cells masked, so two
// renders of the same deterministic computation compare byte-identical.
// Masking happens on the Table (not the rendered text) so column widths
// cannot leak timing differences into the alignment.
func canonical(t *Table) string {
	masked := &Table{Title: t.Title, Note: t.Note, Header: t.Header}
	for _, row := range t.Rows {
		out := make([]string, len(row))
		for i, c := range row {
			if durationCell.MatchString(c) {
				c = "<time>"
			}
			out[i] = c
		}
		masked.Rows = append(masked.Rows, out)
	}
	var buf bytes.Buffer
	masked.Fprint(&buf)
	return buf.String()
}

// detCfg bounds exact solves by node count, not wall clock, so every
// figure runner terminates deterministically: the generous TimeLimit is
// never the binding limit. The budget is deliberately small enough to
// bind on the hard instances — that is what makes the sweep cheap — and
// determinism holds for any budget.
func detCfg() Config {
	return Config{Seed: 3, Quick: true, TimeLimit: time.Minute, MaxNodes: 15}
}

// TestRunnersDeterministicAcrossParallelism is the determinism contract
// of DESIGN.md: every figure table is byte-identical between a serial run
// (Parallel=1) and a heavily oversubscribed parallel run (Parallel=8),
// modulo the measured wall-clock cells masked by canonical.
func TestRunnersDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism sweep is slow")
	}
	for _, r := range Runners() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			// The race-instrumented build checks a representative pair and
			// leaves the full 8-figure byte-identity contract to the plain
			// build: race coverage of the worker pool already comes from
			// the smoke tests (every runner at Parallel=0), and the
			// 5–10× race slowdown would blow the CI shard budget.
			if raceDetector && r.Name != "2d" && r.Name != "2g" {
				t.Skipf("race build: determinism sweep restricted to 2d/2g")
			}
			serial := detCfg()
			serial.Parallel = 1
			parallel := detCfg()
			parallel.Parallel = 8

			ts, err := r.Run(serial)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			tp, err := r.Run(parallel)
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			want, got := canonical(ts), canonical(tp)
			if want != got {
				t.Errorf("table differs between Parallel=1 and Parallel=8:\n--- serial\n%s\n--- parallel\n%s", want, got)
			}
		})
	}
}

// The zero-parallelism default (all cores) must agree with serial too;
// one runner suffices since the fan-out path is shared.
func TestDefaultParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism sweep is slow")
	}
	serial := detCfg()
	serial.Parallel = 1
	ts, err := RunFig2h(serial)
	if err != nil {
		t.Fatal(err)
	}
	def := detCfg() // Parallel: 0 → GOMAXPROCS
	td, err := RunFig2h(def)
	if err != nil {
		t.Fatal(err)
	}
	if canonical(ts) != canonical(td) {
		t.Errorf("Parallel=0 (all cores) table differs from serial:\n%s\nvs\n%s", canonical(td), canonical(ts))
	}
}

// TestDeterminismTracingInvariance is the observability half of the
// determinism contract: attaching a live trace (JSONL sink plus metrics
// fold) must not change a single table byte, at any parallelism. Solvers
// only ever write to the trace, never read from it — this test is what
// keeps that one-way rule honest.
func TestDeterminismTracingInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism sweep is slow")
	}
	ref := detCfg()
	ref.Parallel = 1
	tref, err := RunFig2h(ref)
	if err != nil {
		t.Fatalf("untraced reference run: %v", err)
	}
	want := canonical(tref)

	for _, par := range []int{1, 8} {
		cfg := detCfg()
		cfg.Parallel = par
		m := obs.NewMetrics()
		tr := obs.New(obs.NewJSONLSink(io.Discard), obs.NewMetricsSink(m))
		cfg.Trace = tr
		tt, err := RunFig2h(cfg)
		if err != nil {
			t.Fatalf("traced run (Parallel=%d): %v", par, err)
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("closing trace (Parallel=%d): %v", par, err)
		}
		if got := canonical(tt); got != want {
			t.Errorf("tracing perturbed the table at Parallel=%d:\n--- untraced\n%s\n--- traced\n%s", par, want, got)
		}
		// The trace must actually have observed the run, or the check above
		// proves nothing.
		snap := m.Snapshot()
		if snap.Counters["pool.tasks"] == 0 {
			t.Errorf("Parallel=%d: trace saw no pool tasks; instrumentation is disconnected", par)
		}
		if snap.Counters["bb.nodes"] == 0 {
			t.Errorf("Parallel=%d: trace saw no branch & bound nodes", par)
		}
	}

	// Engine path: the portfolio runner folds an entire ALNS solve into
	// each grid cell, so it is the densest source of engine.* events —
	// tracing it must be just as invisible, and the metrics fold must see
	// the engine taxonomy.
	if raceDetector {
		t.Skip("race build: engine invariance leg left to the plain build (engine worker-pool race coverage comes from internal/engine's own tests)")
	}
	eref := detCfg()
	eref.Parallel = 1
	tref2, err := RunPortfolio(eref)
	if err != nil {
		t.Fatalf("untraced portfolio reference run: %v", err)
	}
	wantEng := canonical(tref2)
	for _, par := range []int{1, 8} {
		cfg := detCfg()
		cfg.Parallel = par
		m := obs.NewMetrics()
		tr := obs.New(obs.NewJSONLSink(io.Discard), obs.NewMetricsSink(m))
		cfg.Trace = tr
		tt, err := RunPortfolio(cfg)
		if err != nil {
			t.Fatalf("traced portfolio run (Parallel=%d): %v", par, err)
		}
		if err := tr.Close(); err != nil {
			t.Fatalf("closing trace (Parallel=%d): %v", par, err)
		}
		if got := canonical(tt); got != wantEng {
			t.Errorf("tracing perturbed the portfolio table at Parallel=%d:\n--- untraced\n%s\n--- traced\n%s", par, wantEng, got)
		}
		snap := m.Snapshot()
		if snap.Counters["engine.iters"] == 0 {
			t.Errorf("Parallel=%d: trace saw no engine rounds; portfolio instrumentation is disconnected", par)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero Config must validate, got %v", err)
	}
	if err := (Config{Parallel: 8, MaxNodes: 10, TimeLimit: time.Second}).Validate(); err != nil {
		t.Errorf("valid Config rejected: %v", err)
	}
	for _, bad := range []Config{{Parallel: -1}, {MaxNodes: -2}, {TimeLimit: -time.Second}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Config %+v must be rejected", bad)
		}
	}
	// Validation is enforced on the single shared path every runner uses.
	bad := Config{Seed: 1, Quick: true, Parallel: -4}
	if _, err := RunFig2h(bad); err == nil {
		t.Error("runner accepted a negative Parallel")
	}
}

// TestNodeBudgetIgnoresClock: under a node budget an exact solve stops on
// the budget alone, so its nodes, objective and deployment do not depend
// on TimeLimit, however short.
func TestNodeBudgetIgnoresClock(t *testing.T) {
	s, err := Build(smallOptimal(5, 1.2, 2))
	if err != nil {
		t.Fatal(err)
	}
	solveWith := func(limit time.Duration) (*core.Deployment, *core.SolveInfo) {
		d, info, err := solveOptimalWarm(s, core.Options{}, Config{MaxNodes: 3, TimeLimit: limit})
		if err != nil {
			t.Fatalf("TimeLimit %v: %v", limit, err)
		}
		return d, info
	}
	dh, ih := solveWith(time.Hour)
	dn, in := solveWith(time.Nanosecond)
	if ih.Nodes != in.Nodes || ih.Objective != in.Objective || !reflect.DeepEqual(dh, dn) {
		t.Errorf("TimeLimit 1ns: nodes %d, objective %g; TimeLimit 1h: nodes %d, objective %g (deployments equal: %v)",
			in.Nodes, in.Objective, ih.Nodes, ih.Objective, reflect.DeepEqual(dh, dn))
	}
	if ih.Nodes == 0 {
		t.Errorf("the budgeted solve explored no nodes; the instance does not exercise the budget")
	}
}
