package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nocdeploy/internal/cache"
	"nocdeploy/internal/core"
	"nocdeploy/internal/noc"
	"nocdeploy/internal/obs"
	"nocdeploy/internal/spec"
)

// figureNames are the exp runner names, in paper order.
var figureNames = []string{"2a", "2b", "2c", "2d", "2e", "2f", "2g", "2h"}

// layerInput is everything the per-layer metrics are computed from. A
// layer a workload does not exercise reports 0.
type layerInput struct {
	ops        int     // timed ops of the traced phase
	passes     int     // figure-suite passes (figures only)
	wall       float64 // seconds
	workers    int     // figure pool workers
	sink       *countingSink
	spans      []span
	clientLat  map[string]float64 // request ID → client latency (s)
	cacheDelta cache.Stats
	appends    int64
	drops      int64
	rt0, rt1   runtimeSnap
	replayMS   map[string]float64 // ms per call
}

// perLayer computes every per-layer metric of a traced phase but
// obs.trace_overhead, which needs the untraced phase (see mergePair).
// Times are per op unless the name says otherwise; counts are totals over
// the traced timed phase.
func perLayer(in layerInput) map[string]metric {
	s := in.sink
	ops := float64(in.ops)
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// exp: mean seconds per pass of each runner's benchmark span.
	figS := map[string]float64{}
	for _, sp := range in.spans {
		if strings.HasPrefix(sp.Name, "fig") {
			figS[strings.TrimPrefix(sp.Name, "fig")] += sp.End - sp.Start
		}
	}
	for _, f := range figureNames {
		put("exp.fig"+f+"_s", ratio(figS[f], float64(in.passes)), "s")
	}

	// runner: the experiment pool's cells and busy time.
	cells := s.get(obs.PoolTaskDone, "")
	put("runner.cells", float64(cells.n), "count")
	put("runner.busy_s", cells.dur, "s")
	put("runner.utilization", ratio(cells.dur, in.wall*float64(in.workers)), "ratio")

	// milp: node and prune counts; time inside exact solves is
	// Σ T(done) − Σ T(start), exact for overlapping solves too.
	put("milp.nodes", float64(s.get(obs.BBNode, "").n), "count")
	put("milp.prunes", float64(s.get(obs.BBPrune, "").n), "count")
	optStart, optDone := s.get(obs.SolveStart, "optimal"), s.get(obs.SolveDone, "optimal")
	optS := 0.0
	if optStart.n == optDone.n {
		optS = optDone.t - optStart.t
	}
	put("milp.optimal_s", optS, "s")

	// lp
	lps := s.get(obs.LPSolve, "")
	put("lp.solves", float64(lps.n), "count")
	put("lp.pivots", float64(lps.iters), "count")
	put("lp.refactors", float64(s.get(obs.LPRefactor, "").n), "count")
	put("lp.warmstart_ok_ratio", ratio(float64(s.get(obs.LPWarmStart, "ok").n), float64(s.get(obs.LPWarmStart, "").n)), "ratio")

	// core: heuristic phases P1/P2/P3 (the paper's P2/P3/P4) per op,
	// repair rounds, and the replayed metrics/validation calls.
	put("core.heur.freqdup_ms", ratio(s.get(obs.HeurPhaseEnd, "P1").dur*1e3, ops), "ms")
	put("core.heur.alloc_ms", ratio(s.get(obs.HeurPhaseEnd, "P2").dur*1e3, ops), "ms")
	put("core.heur.paths_ms", ratio(s.get(obs.HeurPhaseEnd, "P3").dur*1e3, ops), "ms")
	put("core.repair_rounds", float64(s.get(obs.HeurRepair, "").n), "count")
	for _, name := range []string{"core.metrics_ms", "core.validate_ms", "spec.decode_ms", "spec.hash_ms", "spec.build_ms", "noc.mesh_ms"} {
		put(name, in.replayMS[name], "ms")
	}

	// service: mean stage time per occurrence, and the client's share.
	for _, st := range []string{"admission", "cache", "queue", "solve"} {
		a := s.get(obs.ReqStage, st)
		put("service."+st+"_ms", ratio(a.dur*1e3, float64(a.n)), "ms")
	}
	done := s.get(obs.ReqDone, "")
	put("service.e2e_ms", ratio(done.dur*1e3, float64(done.n)), "ms")
	var clientGap float64
	var gapN int
	for id, lat := range in.clientLat {
		if e2e, ok := s.e2e[id]; ok {
			clientGap += lat - e2e
			gapN++
		}
	}
	put("service.client_ms", ratio(clientGap*1e3, float64(gapN)), "ms")

	// cache
	c := in.cacheDelta
	put("cache.hits", float64(c.Hits), "count")
	put("cache.misses", float64(c.Misses), "count")
	put("cache.coalesced", float64(c.Coalesced), "count")
	put("cache.hit_ratio", c.HitRatio(), "ratio")

	// archive
	rec := s.get(obs.ArchiveRecord, "")
	put("archive.appends", float64(in.appends), "count")
	put("archive.drops", float64(in.drops), "count")
	put("archive.append_ms", ratio(rec.dur*1e3, float64(rec.n)), "ms")
	put("archive.record_bytes", ratio(float64(rec.node), float64(rec.n)), "B")

	// engine: applications, improvements and seconds per operator.
	applies := s.get(obs.EngineOpApply, "")
	put("engine.applies", float64(applies.n), "count")
	put("engine.improved_ratio", ratio(float64(s.get(improvedKind, "").n), float64(applies.n)), "ratio")
	for _, op := range portfolioOpNames() {
		a := s.get(obs.EngineOpApply, op)
		put("engine.op_s."+op, ratio(a.dur, ops), "s")
		put("engine.improved_ratio."+op, ratio(float64(s.get(improvedKind, op).n), float64(a.n)), "ratio")
	}
	coord := 0.0
	if applies.n > 0 {
		solve := s.get(obs.ReqStage, "solve")
		coord = ratio((solve.dur-applies.dur)*1e3, float64(solve.n))
	}
	put("engine.coord_ms", coord, "ms")

	// obs and the Go runtime
	put("obs.events_per_op", ratio(float64(s.events), ops), "events/op")
	put("go.gc_cycles", float64(in.rt1.numGC-in.rt0.numGC), "count")
	put("go.gc_pause_ms", float64(in.rt1.pauseNs-in.rt0.pauseNs)/1e6, "ms")
	return out
}

// portfolioOpNames lists the operators serve-portfolio selects.
func portfolioOpNames() []string { return strings.Split(portfolioOps, ",") }

// replayInput is one sampled input with its served (or computed) answer.
type replayInput struct {
	inst spec.Instance
	body []byte
	sys  *core.System
	dep  *core.Deployment
}

func newReplayInput(in serveInput, dep *core.Deployment) (replayInput, error) {
	inst, err := in.instance()
	if err != nil {
		return replayInput{}, err
	}
	sys, err := inst.Build()
	if err != nil {
		return replayInput{}, err
	}
	return replayInput{inst: inst, body: in.body, sys: sys, dep: dep}, nil
}

// replayMinCalls is the number of calls each replayed function is timed
// over, cycling through the sample.
const replayMinCalls = 256

// replay calls layer entry points the workload exercises on a sample of
// its own inputs and returns the mean milliseconds per call, timed from
// outside: spec decode/hash/build, noc mesh construction, and core
// metrics/validation of the answers.
func replay(sample []replayInput) (map[string]float64, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("replay: empty sample")
	}
	reps := (replayMinCalls + len(sample) - 1) / len(sample)
	timeIt := func(f func(replayInput) error) (float64, error) {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for _, in := range sample {
				if err := f(in); err != nil {
					return 0, err
				}
			}
		}
		return time.Since(t0).Seconds() * 1e3 / float64(reps*len(sample)), nil
	}
	fns := []struct {
		name string
		f    func(replayInput) error
	}{
		{"spec.decode_ms", func(in replayInput) error {
			var inst spec.Instance
			return json.Unmarshal(in.body, &inst)
		}},
		{"spec.hash_ms", func(in replayInput) error {
			_, err := in.inst.CanonicalHash()
			return err
		}},
		{"spec.build_ms", func(in replayInput) error {
			_, err := in.inst.Build()
			return err
		}},
		{"noc.mesh_ms", func(in replayInput) error {
			// The mesh spec.Instance.Build constructs for the defaults.
			_, err := noc.NewMesh(noc.Config{W: in.inst.Mesh.W, H: in.inst.Mesh.H, Link: noc.DefaultLinkParams(), Jitter: 0.25, Seed: 1})
			return err
		}},
		{"core.metrics_ms", func(in replayInput) error {
			_, err := core.ComputeMetrics(in.sys, in.dep)
			return err
		}},
		{"core.validate_ms", func(in replayInput) error {
			// An infeasible answer is a valid replay input; only a
			// structural failure (no metrics) is an error.
			if m, err := core.Validate(in.sys, in.dep); m == nil {
				return err
			}
			return nil
		}},
	}
	out := map[string]float64{}
	for _, fn := range fns {
		v, err := timeIt(fn.f)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", fn.name, err)
		}
		out[fn.name] = v
	}
	return out, nil
}

// serveLayers assembles the per-layer metrics of a traced serve phase
// and exports its trace.
func serveLayers(o options, inputs []serveInput, ph *servePhase, verdicts map[bodyKey]verdict, sink *countingSink) (map[string]metric, error) {
	spans := make([]span, len(ph.loop.replies))
	clientLat := make(map[string]float64, len(spans))
	laneOf := make(map[string]int, len(spans))
	for i, r := range ph.loop.replies {
		spans[i] = span{Name: "POST /v1/solve", Lane: r.lane, Start: r.start, End: r.start + r.lat, Req: r.reqID}
		clientLat[r.reqID] = r.lat
		laneOf[r.reqID] = r.lane
	}

	// Replay sample: the first distinct inputs with a checked answer.
	var sample []replayInput
	seen := map[int]bool{}
	for _, r := range ph.loop.replies {
		v := verdicts[bodyKey{r.input, r.digest}]
		if seen[r.input] || v.dep == nil || len(sample) == 64 {
			continue
		}
		seen[r.input] = true
		ri, err := newReplayInput(inputs[r.input], v.dep)
		if err != nil {
			return nil, err
		}
		sample = append(sample, ri)
	}
	replayMS, err := replay(sample)
	if err != nil {
		return nil, err
	}
	pl := perLayer(layerInput{
		ops:        len(ph.loop.replies),
		wall:       ph.loop.wall.Seconds(),
		sink:       sink,
		spans:      spans,
		clientLat:  clientLat,
		cacheDelta: ph.cacheDelta,
		appends:    ph.appends,
		drops:      ph.drops,
		rt0:        ph.rt0,
		rt1:        ph.rt1,
		replayMS:   replayMS,
	})
	return pl, export(o, sink, spans, laneOf, pl)
}

// export writes the traced run's files under the output directory.
func export(o options, sink *countingSink, spans []span, laneOf map[string]int, pl map[string]metric) error {
	dir := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	summary, chrome, err := exportTrace(dir, sink, spans, laneOf, pl)
	if err != nil {
		return err
	}
	logf("trace: %s, %s", summary, chrome)
	return nil
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, or the Go
// runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func logTail(workload, label string, n int) {
	logf("%s: latency_tail_ms is %s of %d samples", workload, label, n)
}
