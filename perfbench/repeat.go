package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json repeat mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeat runs the workload n times, each in a fresh process with seed
// o.seed+i, and prints per metric the median, quartiles and interquartile
// range (as a share of the median, the spread the acceptance rule uses)
// next to the metric's bound from BENCHMARK.json in the working directory.
func repeat(o options, n int, stdout io.Writer) error {
	bounds := map[string]float64{}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bs benchSpec
		if err := json.Unmarshal(data, &bs); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bs.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failedRuns int
	for i := 0; i < n; i++ {
		seed := o.seed + int64(i)
		out, err := runSelf("--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", trace, "--out", o.out)
		var res result
		if err == nil {
			err = decodeLastLine(out, &res)
		}
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, seed, err)
		}
		if !res.Correct {
			failedRuns++
		}
		fmt.Fprintf(stdout, "run %d seed %d: %s\n", i+1, seed, lastLine(out))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-30s %-9s %12s %12s %12s %9s %7s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "bound")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		b := "-"
		if v, ok := bounds[name]; ok {
			b = strconv.FormatFloat(v, 'f', -1, 64)
		}
		fmt.Fprintf(stdout, "%-30s %-9s %12.6g %12.6g %12.6g %9.4f %7s\n", name, units[name], med, q1, q3, ratio(q3-q1, med), b)
	}
	if failedRuns > 0 {
		return fmt.Errorf("%d of %d runs reported incorrect answers", failedRuns, n)
	}
	return nil
}

// tracePair runs the workload's two phases, untraced and traced, each in
// a fresh process so that neither inherits the other's heap or pooled
// workspaces. Odd seeds run the untraced phase first and even seeds the
// traced one, so order effects cancel across runs.
func tracePair(o options) (*result, error) {
	order := []string{phaseUntraced, phaseTraced}
	if o.seed%2 == 0 {
		order[0], order[1] = order[1], order[0]
	}
	reps := map[string]*report{}
	for _, phase := range order {
		out, err := runSelf("--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--out", o.out, "--phase", phase)
		var rep report
		if err == nil {
			err = decodeLastLine(out, &rep)
		}
		if err != nil {
			return nil, fmt.Errorf("%s phase: %w", phase, err)
		}
		reps[phase] = &rep
	}
	return mergePair(reps[phaseUntraced], reps[phaseTraced])
}

// mergePair combines the phases of a traced pair: the traced phase's
// per-layer metrics plus obs.trace_overhead = traced ÷ untraced wall − 1,
// and every op of both phases in the counts. Tracing must not change an
// answer, so a traced op that passed its own checks fails when its answer
// differs from the untraced answer to the same request.
func mergePair(untraced, traced *report) (*result, error) {
	n := len(traced.Answers)
	if len(untraced.Answers) != n || len(traced.Passed) != n {
		return nil, fmt.Errorf("phases report %d and %d answers", len(untraced.Answers), n)
	}
	res := traced.Result
	metrics := make(map[string]metric, len(res.Metrics)+1)
	for name, m := range res.Metrics {
		metrics[name] = m
	}
	metrics["obs.trace_overhead"] = metric{ratio(traced.WallS, untraced.WallS) - 1, "ratio"}
	res.Metrics = metrics
	res.Attempted += untraced.Result.Attempted
	res.Failed += untraced.Result.Failed
	var differ int
	for i, fp := range traced.Answers {
		if traced.Passed[i] && fp != untraced.Answers[i] {
			differ++
		}
	}
	if differ > 0 {
		logf("%d traced answers differ from the untraced answers to the same requests", differ)
	}
	res.Failed += differ
	res.Correct = res.Failed == 0
	return &res, nil
}

// runSelf runs this binary with args, waits for it and returns its
// standard output; its standard error passes through.
func runSelf(args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// lastLine is the last non-empty line of a run's output.
func lastLine(out []byte) []byte {
	out = bytes.TrimSpace(out)
	return out[bytes.LastIndexByte(out, '\n')+1:]
}

// decodeLastLine parses the JSON on the last line of a run's output.
func decodeLastLine(out []byte, v any) error {
	line := lastLine(out)
	if len(line) == 0 {
		return errors.New("no output")
	}
	if err := json.Unmarshal(line, v); err != nil {
		return fmt.Errorf("parsing the last line: %w", err)
	}
	return nil
}
