package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nocdeploy/internal/core"
	"nocdeploy/internal/exp"
	"nocdeploy/internal/obs"
)

const (
	// figPassSeconds is the nominal length of one pass over the suite on
	// the reference machine (2 cores); --seconds fixes the pass count.
	figPassSeconds = 8.0
	// figSetupReps is how many times the suite's set-up is measured.
	figSetupReps = 41
	// startupProbeFlag makes the binary exit right after start-up.
	startupProbeFlag = "startup-probe"
)

// figConfig is the suite configuration: quick scale, node-budgeted exact
// solves under a time limit that never binds (so every cell except the
// measured runtimes is deterministic), all cores, no tracing unless tr.
//
// The suite is a fixed input, like a dataset: its instance seed is the
// zero default, not --seed. Different suite seeds change the work of a
// pass by ±20 % (B&B difficulty varies per instance set), which would
// bury a program change under input variation; a fixed suite leaves only
// machine noise between runs.
func figConfig(tr *obs.Trace) exp.Config {
	return exp.Config{Quick: true, MaxNodes: 50, Parallel: 0, TimeLimit: time.Hour, Trace: tr}
}

// figPhase is one timed run of the suite: passes × runners tables.
type figPhase struct {
	tables   []*exp.Table // in op order: pass-major, runner order
	errs     []error      // runner error per op
	passS    []float64    // seconds per pass
	spans    []span
	wall     time.Duration
	rt0, rt1 runtimeSnap
	rssMB    float64
}

func runFigPhase(passes int, tr *obs.Trace, epoch time.Time) figPhase {
	var ph figPhase
	runtime.GC()
	ph.rt0 = snapRuntime()
	t0 := time.Now()
	cfg := figConfig(tr)
	for p := 0; p < passes; p++ {
		passStart := time.Now()
		for _, r := range exp.Runners() {
			start := time.Now()
			tb, err := r.Run(cfg)
			end := time.Now()
			ph.tables = append(ph.tables, tb)
			ph.errs = append(ph.errs, err)
			ph.spans = append(ph.spans, span{Name: "fig" + r.Name, Start: start.Sub(epoch).Seconds(), End: end.Sub(epoch).Seconds()})
		}
		ph.passS = append(ph.passS, time.Since(passStart).Seconds())
	}
	ph.wall = time.Since(t0)
	ph.rt1 = snapRuntime()
	ph.rssMB = peakRSSMB()
	return ph
}

// durationCell matches table cells holding a measured wall-clock time
// ("0.123s", ">1.2s", "0.04ms"): the only cells that may differ between
// two runs of the same configuration.
var durationCell = regexp.MustCompile(`^>?[0-9]+(\.[0-9]+)?(e[+-]?[0-9]+)?(ns|µs|us|ms|s)$`)

// maskedTable renders t with measured-runtime cells masked.
func maskedTable(t *exp.Table) string {
	masked := &exp.Table{Title: t.Title, Note: t.Note, Header: t.Header}
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

// checkTable verifies one figure op: the runner succeeded and the table
// has its header and rows, each row as wide as the header.
func checkTable(t *exp.Table, runErr error) error {
	switch {
	case runErr != nil:
		return runErr
	case t == nil:
		return errors.New("no table")
	case len(t.Header) == 0:
		return errors.New("table has no header")
	case len(t.Rows) == 0:
		return errors.New("table has no rows")
	}
	for i, row := range t.Rows {
		if len(row) != len(t.Header) {
			return fmt.Errorf("row %d has %d cells, header has %d", i, len(row), len(t.Header))
		}
	}
	return nil
}

// suiteAnswers reads the suite's answers off its tables: the feasibility
// cells (columns feas…, feasible and delta(…), as "87.5%" or "3/3") and
// the max per-core energy cells of feasible answers (columns E(…), in J,
// as in Fig. 2(a) and 2(g)).
func suiteAnswers(tables []*exp.Table) (feasible []float64, energiesMJ []float64) {
	for _, t := range tables {
		if t == nil {
			continue
		}
		for col, h := range t.Header {
			feasCol := strings.HasPrefix(h, "feas") || strings.HasPrefix(h, "delta(")
			energyCol := strings.HasPrefix(h, "E(")
			for _, row := range t.Rows {
				if col >= len(row) {
					continue
				}
				cell := row[col]
				switch {
				case feasCol:
					if v, ok := parseShare(cell); ok {
						feasible = append(feasible, v)
					}
				case energyCol:
					if v, err := strconv.ParseFloat(cell, 64); err == nil && v > 0 {
						energiesMJ = append(energiesMJ, v*1e3)
					}
				}
			}
		}
	}
	return feasible, energiesMJ
}

// parseShare parses "87.5%" or "3/4" as a fraction.
func parseShare(cell string) (float64, bool) {
	if pct, ok := strings.CutSuffix(cell, "%"); ok {
		v, err := strconv.ParseFloat(pct, 64)
		return v / 100, err == nil
	}
	if num, den, ok := strings.Cut(cell, "/"); ok {
		a, err1 := strconv.Atoi(num)
		b, err2 := strconv.Atoi(den)
		if err1 != nil || err2 != nil || b == 0 {
			return 0, false
		}
		return float64(a) / float64(b), true
	}
	return 0, false
}

// startupSeconds times program start-up: it starts this binary with
// --startup-probe, which exits right after flag parsing, and waits for
// it. The interval covers exec, Go runtime start and the initialisation
// of every package the suite links.
func startupSeconds() (float64, error) {
	t0 := time.Now()
	if _, err := runSelf("--" + startupProbeFlag); err != nil {
		return 0, fmt.Errorf("start-up probe: %w", err)
	}
	return time.Since(t0).Seconds(), nil
}

// runFigures runs the figure suite: its end-to-end metrics, or as one
// phase of a traced pair (--phase) its answers and, traced, its per-layer
// metrics.
//
// The suite has no set-up that users skip on later runs: it builds its
// instances inside each table. Its set-up is program start-up, the part
// of a run before the first table, timed figSetupReps times in fresh
// processes. Each op is one table. What a user waits for is the whole
// suite, so latency is per pass; with a handful of passes no percentile
// has ten samples beyond it and the tail is the slowest pass. The
// answers are the suite's own feasibility and energy cells.
func runFigures(o options) (*report, error) {
	epoch := time.Now()
	passes := int(math.Round(float64(o.seconds) / figPassSeconds))
	if passes < 1 {
		passes = 1
	}
	if len(exp.Runners()) != len(figureNames) {
		return nil, fmt.Errorf("exp.Runners() lists %d figures, want %d", len(exp.Runners()), len(figureNames))
	}
	var setups []float64
	for r := 0; o.phase == "" && r < figSetupReps; r++ {
		s, err := startupSeconds()
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}

	var sink *countingSink
	var tr *obs.Trace
	if o.phase == phaseTraced {
		sink = newCountingSink(epoch)
		tr = obs.New(sink)
		sink.active.Store(true)
	}
	ph := runFigPhase(passes, tr, epoch)
	if tr != nil {
		sink.active.Store(false)
		if err := tr.Close(); err != nil {
			return nil, err
		}
	}

	// Passes repeat the same suite, so every table must also equal its
	// first-pass twin once measured runtimes are masked.
	ops := len(ph.tables)
	rep := &report{WallS: ph.wall.Seconds(), Answers: make([]uint64, ops), Passed: make([]bool, ops)}
	var failed int
	var firstErr error
	for i, t := range ph.tables {
		err := checkTable(t, ph.errs[i])
		if err == nil {
			rep.Answers[i] = fingerprint([]byte(maskedTable(t)))
			if first := rep.Answers[i%len(figureNames)]; i >= len(figureNames) && first != 0 && rep.Answers[i] != first {
				err = errors.New("table differs from the same table in the first pass")
			}
		}
		rep.Passed[i] = err == nil
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("table %d (fig%s, pass %d): %w", i, figureNames[i%len(figureNames)], i/len(figureNames), err)
			}
		}
	}
	if firstErr != nil {
		logf("figures: %d of %d tables failed; first: %v", failed, ops, firstErr)
	}
	rep.Result = result{Correct: failed == 0, Attempted: ops, Failed: failed}

	if sink == nil {
		ms := sortedMillis(ph.passS)
		tailV, tailL := tail(ms, p99)
		logTail("figures", tailL, len(ms))
		feas, energies := suiteAnswers(ph.tables)
		gm, _ := gmean(energies)
		var feasSum float64
		for _, f := range feas {
			feasSum += f
		}
		wall := ph.wall.Seconds()
		rep.Result.Metrics = map[string]metric{
			"setup_s":            {median(setups), "s"},
			"wall_s":             {wall, "s"},
			"ops_per_s":          {float64(ops) / wall, "1/s"},
			"latency_p50_ms":     {median(ms), "ms"},
			"latency_tail_ms":    {tailV, "ms"},
			"success_ratio":      {ratio(float64(ops-failed), float64(ops)), "ratio"},
			"feasible_ratio":     {ratio(feasSum, float64(len(feas))), "ratio"},
			"objective_gmean_mj": {gm, "mJ"},
			"alloc_mb":           {float64(ph.rt1.totalAlloc-ph.rt0.totalAlloc) / 1e6 / float64(ops), "MB/op"},
			"peak_rss_mb":        {ph.rssMB, "MB"},
		}
		return rep, nil
	}

	sample, err := figureReplaySample()
	if err != nil {
		return nil, err
	}
	replayMS, err := replay(sample)
	if err != nil {
		return nil, err
	}
	pl := perLayer(layerInput{
		ops:      ops,
		passes:   passes,
		wall:     ph.wall.Seconds(),
		workers:  runtime.GOMAXPROCS(0),
		sink:     sink,
		spans:    ph.spans,
		rt0:      ph.rt0,
		rt1:      ph.rt1,
		replayMS: replayMS,
	})
	if err := export(o, sink, ph.spans, nil, pl); err != nil {
		return nil, err
	}
	rep.Result.Metrics = pl
	return rep, nil
}

// figureReplaySample draws the replay inputs for the figures workload,
// which sends no spec instances of its own: serve-cold's warm-up
// instances with their heuristic answers.
func figureReplaySample() ([]replayInput, error) {
	inputs, err := genInputs(serveCold, rand.New(rand.NewSource(fixedSeed)), serveCold.warmup, map[uint64]bool{})
	if err != nil {
		return nil, err
	}
	sample := make([]replayInput, len(inputs))
	for i, in := range inputs {
		if sample[i], err = newReplayInput(in, nil); err != nil {
			return nil, err
		}
		if sample[i].dep, _, err = core.Heuristic(sample[i].sys, core.Options{}, 1); err != nil {
			return nil, err
		}
	}
	return sample, nil
}
