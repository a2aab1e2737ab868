// Command deploy solves a task deployment instance from JSON and writes
// the resulting deployment (with metrics) as JSON.
//
// Usage:
//
//	deploy -in instance.json [-method heuristic|repair|anneal|optimal|portfolio]
//	       [-objective be|me] [-single] [-timeout 30s] [-workers 1] [-seed 1]
//	       [-ops names] [-rounds N] [-budget N] [-out deployment.json]
//	       [-cache-dir DIR] [-trace PREFIX] [-progress] [-metrics-out FILE]
//	       [-pprof FILE]
//
// The instance format is documented in internal/spec; cmd/taskgen
// generates compatible instances. Every method runs through solve.Run, so
// it takes the same policy and input rules as the deployment service;
// -timeout is the solve's context deadline. -cache-dir keeps solved
// deployments in a content-addressed directory cache (keyed by the
// canonical instance hash plus the solver options), so repeated
// invocations on the same input are near-instant; the summary reports
// cache: hit|miss. -trace writes the solver event stream to PREFIX.jsonl
// and a Chrome trace_event view to PREFIX.trace.json (open in Perfetto or
// chrome://tracing); -progress prints a live ticker on stderr (-q wins: a
// quiet run never prints progress); tracing never changes the computed
// deployment.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"nocdeploy/internal/cache"
	"nocdeploy/internal/core"
	"nocdeploy/internal/obs"
	"nocdeploy/internal/render"
	"nocdeploy/internal/sim"
	"nocdeploy/internal/solve"
	"nocdeploy/internal/spec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("deploy: ")
	var (
		in         = flag.String("in", "-", "instance JSON file (- for stdin)")
		out        = flag.String("out", "-", "deployment JSON output (- for stdout)")
		method     = flag.String("method", solve.Heuristic, "solver: "+strings.Join(solve.Names(), ", "))
		objective  = flag.String("objective", "be", "objective: be (balance) or me (minimize total)")
		single     = flag.Bool("single", false, "single-path routing baseline")
		timeout    = flag.Duration("timeout", 60*time.Second, "solve deadline (0 = none)")
		workers    = flag.Int("workers", 1, "branch & bound workers for -method optimal, batch workers for portfolio (0/1 = serial, -1 = all cores)")
		seed       = flag.Int64("seed", 1, "heuristic tie-break seed")
		engOps     = flag.String("ops", "", "portfolio operators, comma-separated (-method portfolio; empty = all)")
		engRounds  = flag.Int("rounds", 0, "portfolio improvement rounds (-method portfolio; 0 = default)")
		engBudget  = flag.Int("budget", 0, "portfolio exact-repair node budget (-method portfolio; 0 = default)")
		cacheDir   = flag.String("cache-dir", "", "cache solved deployments in this directory (repeat runs are near-instant)")
		quiet      = flag.Bool("q", false, "suppress the metrics summary (and -progress) on stderr")
		gantt      = flag.Bool("gantt", false, "render an ASCII schedule and energy chart on stderr")
		simulate   = flag.Int("simulate", 0, "run N fault-injection trials and report survival rates")
		traceOut   = flag.String("trace", "", "write the solver trace to PREFIX.jsonl and PREFIX.trace.json")
		progress   = flag.Bool("progress", false, "print a live solver progress ticker on stderr (-q wins)")
		metrics    = flag.String("metrics-out", "", "write a solver metrics snapshot (JSON) to this file")
		cpuprofile = flag.String("pprof", "", "write a CPU profile to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
	}
	var progW io.Writer
	if *progress && !*quiet {
		progW = os.Stderr
	}
	obsSetup, err := obs.NewCLISetup(*traceOut, *metrics, progW)
	if err != nil {
		log.Fatal(err)
	}
	cleanup := func() {
		if err := obsSetup.Close(); err != nil {
			log.Print(err)
		}
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
	}

	inst, err := spec.ReadInstance(*in)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := inst.Build()
	if err != nil {
		log.Fatal(err)
	}
	so := solve.Options{
		Core:    core.Options{SinglePath: *single, Trace: obsSetup.Trace},
		Seed:    *seed,
		Workers: *workers,
		Rounds:  *engRounds,
		Budget:  *engBudget,
	}
	if *engOps != "" {
		so.Ops = strings.Split(*engOps, ",")
	}
	if err := so.Validate(*method); err != nil {
		log.Fatal(err)
	}
	switch *objective {
	case "be":
		so.Core.Objective = core.BalanceEnergy
	case "me":
		so.Core.Objective = core.MinimizeEnergy
	default:
		log.Fatalf("unknown objective %q (want be or me)", *objective)
	}

	// The directory cache is keyed by the canonical instance hash plus every
	// option that changes the answer. -timeout is not one: a deadline-
	// cancelled solve is never stored. -workers matters only to the exact
	// solver, so the other methods stay cacheable across worker tweaks.
	var store *cache.DirStore
	var key string
	cacheState := ""
	if *cacheDir != "" {
		store, err = cache.NewDirStore(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		h, herr := inst.CanonicalHash()
		if herr != nil {
			log.Fatal(herr)
		}
		key = fmt.Sprintf("%s|method=%s|obj=%s|single=%v|seed=%d", h, *method, *objective, *single, *seed)
		if *method == solve.Optimal {
			key += fmt.Sprintf("|workers=%d", *workers)
		}
		if *method == solve.Portfolio {
			// Engine options steer the search, so they address distinct
			// cached answers — mirroring the service's cache-key rule.
			key += fmt.Sprintf("|ops=%s|rounds=%d|budget=%d", *engOps, *engRounds, *engBudget)
		}
	}

	var d *core.Deployment
	var info *core.SolveInfo
	if store != nil {
		data, ok, gerr := store.Get(key)
		if gerr != nil {
			log.Fatal(gerr)
		}
		if ok {
			var dep spec.Deployment
			// An undecodable or no-longer-valid entry (e.g. a stale file from
			// an older format) silently falls through to a fresh solve.
			if json.Unmarshal(data, &dep) == nil {
				cand := dep.ToDeployment()
				if _, verr := core.Validate(sys, cand); verr == nil {
					d = cand
					info = &core.SolveInfo{Feasible: dep.Feasible, Objective: dep.Objective}
					cacheState = "hit"
				}
			}
		}
		if cacheState == "" {
			cacheState = "miss"
		}
	}
	if d == nil {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		d, info, err = solve.Run(ctx, sys, *method, so)
		if err != nil {
			log.Fatal(err)
		}
	}
	if d == nil {
		log.Fatal("no deployment found (infeasible or solver limits hit)")
	}
	m, err := core.ComputeMetrics(sys, d)
	if err != nil {
		log.Fatal(err)
	}
	if store != nil && cacheState == "miss" && info.Feasible && !info.Cancelled {
		// Only feasible deployments are worth replaying; infeasible runs are
		// cheap to repeat, their exit code must come from a live solve, and
		// a deadline-truncated portfolio result is partial by definition.
		data, merr := json.Marshal(spec.FromDeployment(d, m, info))
		if merr == nil {
			merr = store.Put(key, data)
		}
		if merr != nil {
			log.Printf("cache-dir: %v", merr)
		}
	}
	if !*quiet {
		printSummary(sys, d, m, info, cacheState)
	}
	if *gantt {
		fmt.Fprintln(os.Stderr)
		fmt.Fprint(os.Stderr, render.Gantt(sys, d, 72))
		fmt.Fprintln(os.Stderr)
		fmt.Fprint(os.Stderr, render.EnergyBars(sys, m, 40))
	}
	if *simulate > 0 {
		stats, err := sim.InjectFaults(sys, d, *simulate, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "\nfault injection (%d runs): system survival %.6f\n", stats.Runs, stats.SystemRate())
		for i := 0; i < sys.Graph.M(); i++ {
			fmt.Fprintf(os.Stderr, "  task %2d: observed %.6f  analytic %.6f  (threshold %.6f)\n",
				i, stats.SurvivalRate(i), sim.AnalyticTaskReliability(sys, d, i), sys.Rel.Rth)
		}
	}
	if err := spec.WriteJSON(*out, spec.FromDeployment(d, m, info)); err != nil {
		log.Fatal(err)
	}
	cleanup()
	if !info.Feasible {
		os.Exit(2)
	}
}

func printSummary(sys *core.System, d *core.Deployment, m *core.Metrics, info *core.SolveInfo, cacheState string) {
	w := os.Stderr
	if cacheState != "" {
		fmt.Fprintf(w, "cache:          %s\n", cacheState)
	}
	fmt.Fprintf(w, "feasible:       %v\n", info.Feasible)
	fmt.Fprintf(w, "objective:      %.6g J\n", info.Objective)
	fmt.Fprintf(w, "max energy:     %.6g J\n", m.MaxEnergy)
	fmt.Fprintf(w, "total energy:   %.6g J\n", m.SumEnergy)
	fmt.Fprintf(w, "balance phi:    %.4g\n", m.Phi)
	fmt.Fprintf(w, "duplicates:     %d of %d tasks\n", m.Dups, sys.Graph.M())
	fmt.Fprintf(w, "makespan:       %.6g s (horizon %.6g s)\n", m.Makespan, sys.H)
	fmt.Fprintf(w, "runtime:        %v\n", info.Runtime)
	if info.Nodes > 0 {
		fmt.Fprintf(w, "b&b nodes:      %d (gap %.2f%%)\n", info.Nodes, 100*info.Gap)
	}
	fmt.Fprintf(w, "allocation:\n")
	exp := sys.Expanded()
	for i := 0; i < exp.Size(); i++ {
		if !d.Exists[i] {
			continue
		}
		name := sys.Graph.Tasks[exp.Orig(i)].Name
		if name == "" {
			name = fmt.Sprintf("t%d", exp.Orig(i))
		}
		if exp.IsCopy(i) {
			name += "'"
		}
		fmt.Fprintf(w, "  %-10s proc %2d  level %d (%.2g GHz)  start %.4g ms\n",
			name, d.Proc[i], d.Level[i],
			sys.Plat.Levels[d.Level[i]].Freq/1e9, 1000*d.Start[i])
	}
}
