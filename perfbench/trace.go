package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"nocdeploy/internal/obs"
)

// improvedKind keys the per-operator count of engine.op.apply events whose
// outcome was "improved"; it is a fold key, never an emitted kind.
const improvedKind obs.Kind = "engine.op.apply.improved"

// maxRetained bounds the program events kept for the Chrome export.
const maxRetained = 200000

// foldKey addresses one accumulator: an event kind, optionally narrowed
// by its phase or label. Struct keys keep Write free of allocations.
type foldKey struct {
	kind obs.Kind
	sub  string
}

// acc accumulates the events of one fold key.
type acc struct {
	n     int
	dur   float64 // Σ Dur (seconds)
	t     float64 // Σ T (seconds since the trace epoch)
	iters int     // Σ Iters
	node  int     // Σ Node
}

// countingSink is the benchmark's trace sink. It folds the program's
// existing events into counts as they arrive and keeps the renderable
// ones for the Chrome export; nothing is encoded while the workload runs.
// Write is called under the owning obs.Trace's mutex; the folded state is
// read only after every emitter has stopped.
type countingSink struct {
	active atomic.Bool // events outside the timed phase are ignored
	epoch  time.Time   // benchmark epoch that spans are measured from

	// offset places program event times on the benchmark epoch:
	// benchmark time = e.T + offset. It is the smallest observed
	// (now − epoch) − e.T over the first offsetSamples writes.
	offset    float64
	offsetN   int
	events    int
	accs      map[foldKey]*acc
	e2e       map[string]float64 // req.done Dur by request ID
	retained  []obs.Event
	truncated bool
}

const offsetSamples = 256

func newCountingSink(epoch time.Time) *countingSink {
	return &countingSink{
		epoch: epoch,
		accs:  map[foldKey]*acc{},
		e2e:   map[string]float64{},
	}
}

func (s *countingSink) add(k foldKey, e obs.Event) {
	a := s.accs[k]
	if a == nil {
		a = &acc{}
		s.accs[k] = a
	}
	a.n++
	a.dur += e.Dur
	a.t += e.T
	a.iters += e.Iters
	a.node += e.Node
}

// Write folds one event.
func (s *countingSink) Write(e obs.Event) {
	if !s.active.Load() {
		return
	}
	if s.offsetN < offsetSamples {
		est := time.Since(s.epoch).Seconds() - e.T
		if s.offsetN == 0 || est < s.offset {
			s.offset = est
		}
		s.offsetN++
	}
	s.events++
	s.add(foldKey{kind: e.Kind}, e)
	switch e.Kind {
	case obs.HeurPhaseEnd, obs.ReqStage, obs.LPWarmStart:
		s.add(foldKey{e.Kind, e.Phase}, e)
	case obs.SolveStart, obs.SolveDone:
		s.add(foldKey{e.Kind, e.Label}, e)
	case obs.EngineOpApply:
		s.add(foldKey{e.Kind, e.Label}, e)
		if e.Phase == "improved" {
			s.add(foldKey{improvedKind, e.Label}, e)
			s.add(foldKey{improvedKind, ""}, e)
		}
	case obs.ReqDone:
		s.e2e[e.Req] = e.Dur
	}
	switch e.Kind {
	case obs.SolveStart, obs.SolveDone, obs.HeurPhaseStart, obs.HeurPhaseEnd,
		obs.BBNode, obs.BBIncumbent, obs.BBBound, obs.PoolTaskStart, obs.PoolTaskDone:
		if len(s.retained) < maxRetained {
			s.retained = append(s.retained, e)
		} else {
			s.truncated = true
		}
	}
}

// Close is a no-op: the sink owns no resources.
func (s *countingSink) Close() error { return nil }

// get returns the accumulator for k (zero when no event matched).
func (s *countingSink) get(kind obs.Kind, sub string) acc {
	if a := s.accs[foldKey{kind, sub}]; a != nil {
		return *a
	}
	return acc{}
}

// span is one benchmark-measured interval: a figure runner or one HTTP
// request as the client saw it.
type span struct {
	Name  string  `json:"name"`
	Lane  int     `json:"lane"`
	Start float64 `json:"start_s"` // seconds since the benchmark epoch
	End   float64 `json:"end_s"`
	Req   string  `json:"req,omitempty"` // X-Request-ID
}

// runtimeSnap is the Go runtime state at a phase boundary.
type runtimeSnap struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func snapRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSnap{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// foldSummary is the JSON shape of one folded accumulator.
type foldSummary struct {
	Kind  string  `json:"kind"`
	Sub   string  `json:"sub,omitempty"`
	N     int     `json:"n"`
	DurS  float64 `json:"dur_s"`
	Iters int     `json:"iters,omitempty"`
	Node  int     `json:"node,omitempty"`
}

// exportTrace writes the traced run's spans, folded counts and per-layer
// metrics as JSON, and the program's events plus the benchmark's spans as
// Chrome trace_event JSON through obs.NewChromeSink (open it in
// https://ui.perfetto.dev). Program events of a request are moved onto
// the track of the client lane that sent it; benchmark spans render as
// solve spans named after the runner or request.
func exportTrace(dir string, sink *countingSink, spans []span, laneOf map[string]int, perLayer map[string]metric) (summaryPath, chromePath string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	folds := make([]foldSummary, 0, len(sink.accs))
	for k, a := range sink.accs {
		folds = append(folds, foldSummary{Kind: string(k.kind), Sub: k.sub, N: a.n, DurS: a.dur, Iters: a.iters, Node: a.node})
	}
	sort.Slice(folds, func(i, j int) bool {
		if folds[i].Kind != folds[j].Kind {
			return folds[i].Kind < folds[j].Kind
		}
		return folds[i].Sub < folds[j].Sub
	})
	summary := struct {
		Events    int               `json:"events"`
		Truncated bool              `json:"chrome_truncated"`
		Folds     []foldSummary     `json:"folds"`
		PerLayer  map[string]metric `json:"per_layer"`
		Spans     []span            `json:"spans"`
	}{sink.events, sink.truncated, folds, perLayer, spans}
	data, err := json.MarshalIndent(summary, "", " ")
	if err != nil {
		return "", "", err
	}
	summaryPath = filepath.Join(dir, "summary.json")
	if err := os.WriteFile(summaryPath, data, 0o644); err != nil {
		return "", "", err
	}

	// Chrome spans are B/E pairs per track, so every record is merged
	// into one time-ordered stream before it reaches the sink.
	type rec struct {
		t float64
		e obs.Event
	}
	recs := make([]rec, 0, len(sink.retained)+2*len(spans))
	for _, e := range sink.retained {
		e.T += sink.offset
		if lane, ok := laneOf[e.Req]; ok && e.Req != "" {
			e.Worker = 1 + lane
		}
		recs = append(recs, rec{e.T, e})
	}
	for _, sp := range spans {
		tid := 100 + sp.Lane
		name := sp.Name
		if sp.Req != "" {
			name += " " + sp.Req
		}
		recs = append(recs,
			rec{sp.Start, obs.Event{Kind: obs.SolveStart, T: sp.Start, Label: name, Worker: tid}},
			rec{sp.End, obs.Event{Kind: obs.SolveDone, T: sp.End, Label: name, Worker: tid, Phase: "span"}})
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].t < recs[j].t })
	chromePath = filepath.Join(dir, "chrome.json")
	f, err := os.Create(chromePath)
	if err != nil {
		return "", "", err
	}
	cs := obs.NewChromeSink(f) // closes f
	for _, r := range recs {
		cs.Write(r.e)
	}
	if err := cs.Close(); err != nil {
		return "", "", fmt.Errorf("writing %s: %w", chromePath, err)
	}
	return summaryPath, chromePath, nil
}
