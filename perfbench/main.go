// Command perfbench is the repository benchmark. It drives two paths of
// the system as deterministic workloads:
//
//   - figures: the paper's Fig. 2(a)–(h) suite through exp.Runners();
//   - serve-cold, serve-hot, serve-portfolio: POST /v1/solve through an
//     in-process service.New(cfg).Handler() on a loopback listener,
//     configured like nocdeployd's defaults.
//
// Every answer is checked after the timed phase, and the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones.
// With --trace 1 the same workload and seed run twice, untraced and
// traced, each in a fresh process, and the metrics are the per-layer ones
// folded from the program's own trace events, benchmark spans and a
// replay of layer entry points.
//
// All work is fixed by --seed and --seconds: node budgets and round counts
// replace deadlines, and the number of operations is derived from
// --seconds, so answers and work counts repeat exactly and only time
// varies. Run it from the repository root:
//
//	bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 16 --trace 0
//	bash perfbench/run.sh --workload figures --seed 1 --seconds 16 --trace 0 --repeat 10
//
// --repeat N runs the workload N times in fresh processes with seeds
// seed..seed+N-1 and prints, per metric, the median, quartiles and
// interquartile range next to the bound recorded in BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one run's outcome. A phase of a traced pair prints all of it
// as its last line, so that the pair's parent can compare the two phases'
// answers op by op; a plain run prints only the result.
type report struct {
	Result  result   `json:"result"`
	WallS   float64  `json:"wall_s"`  // length of the timed phase
	Answers []uint64 `json:"answers"` // per op: fingerprint of the answer, 0 for none
	Passed  []bool   `json:"passed"`  // per op: the answer passed every check
}

// Phases of a traced pair (see tracePair).
const (
	phaseUntraced = "untraced"
	phaseTraced   = "traced"
)

// options are the parsed command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	phase    string // "", phaseUntraced or phaseTraced
	out      string // directory for temporary archives and trace exports
}

// workloads maps each workload name to its runner. Every runner generates
// its inputs from the seed, sets up, measures, checks every answer, and
// returns end-to-end metrics, or in the traced phase of a pair per-layer
// metrics.
var workloads = map[string]func(options) (*report, error){
	"figures":         runFigures,
	"serve-cold":      func(o options) (*report, error) { return runServe(o, serveCold) },
	"serve-hot":       func(o options) (*report, error) { return runServe(o, serveHot) },
	"serve-portfolio": func(o options) (*report, error) { return runServe(o, servePortfolio) },
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag, repeatN int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "input seed (same seed, same inputs)")
	fs.IntVar(&o.seconds, "seconds", 16, "run length; sizes the fixed amount of work")
	fs.IntVar(&traceFlag, "trace", 0, "1 = run traced and report per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for temporary archives and trace exports")
	fs.IntVar(&repeatN, "repeat", 0, "run the workload N times in fresh processes and print spread statistics")
	fs.StringVar(&o.phase, "phase", "", "run one phase of a traced pair, "+phaseUntraced+" or "+phaseTraced+", and print its full report")
	probe := fs.Bool(startupProbeFlag, false, "exit right after start-up (used to time program start-up)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *probe {
		return nil
	}
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if o.phase != "" && o.phase != phaseUntraced && o.phase != phaseTraced {
		return fmt.Errorf("--phase must be %s or %s, got %q", phaseUntraced, phaseTraced, o.phase)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	runW, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want one of %s)", o.workload, workloadNames())
	}
	if repeatN > 0 {
		return repeat(o, repeatN, stdout)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if o.trace && o.phase == "" {
		res, err := tracePair(o)
		if err != nil {
			return err
		}
		return printResult(stdout, res)
	}
	rep, err := runW(o)
	if err != nil {
		return err
	}
	if o.phase != "" {
		line, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "%s\n", line)
		return err
	}
	return printResult(stdout, &rep.Result)
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	b, _ := json.Marshal(names) // a []string always marshals
	return string(b)
}

// printResult writes one human-readable line per metric, then the JSON
// result as the last line.
func printResult(w io.Writer, res *result) error {
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "correct=%t attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
