package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nocdeploy/internal/archive"
	"nocdeploy/internal/cache"
	"nocdeploy/internal/core"
	"nocdeploy/internal/numeric"
	"nocdeploy/internal/obs"
	"nocdeploy/internal/runner"
	"nocdeploy/internal/service"
	"nocdeploy/internal/spec"
	"nocdeploy/internal/taskgen"
)

// serveKind describes one HTTP workload.
type serveKind struct {
	name string
	// rate is the nominal request rate on the reference machine (2 cores);
	// --seconds × rate fixes the number of timed requests.
	rate float64
	// portfolio sends solver=portfolio at M = 20 instead of alternating
	// heuristic/repair over M in 12–28.
	portfolio bool
	// pairs > 0 cycles the timed requests over that many (instance,
	// solver) pairs, all solved during set-up (cache hits); 0 sends a
	// distinct instance with every request (cache misses).
	pairs int
	// warmup is the number of warm-up requests of a miss workload, on
	// instances outside the timed set.
	warmup int
}

var (
	serveCold      = serveKind{name: "serve-cold", rate: 330, warmup: 64}
	serveHot       = serveKind{name: "serve-hot", rate: 3200, pairs: 64}
	servePortfolio = serveKind{name: "serve-portfolio", rate: 10, portfolio: true, warmup: 8}
)

const (
	// portfolioOps leaves out the exact-polish operators: one node LP at
	// 4×4 takes seconds, and that cost is measured by the figures workload.
	portfolioOps = "heuristic,repair,improve,paths,anneal"
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps = 7
	// minServeOps keeps at least minBeyond samples beyond p90, the
	// reported tail: p99 moved by 13–27 % between runs on a noisy host.
	minServeOps = 110
	// fixedSeed seeds the inputs that do not vary with --seed: the
	// warm-up requests and serve-hot's pairs. Set-up then does the same
	// work in every run, and serve-hot answers the same 64 requests.
	fixedSeed = 1
)

// serveInput is one request the workload may send. The instance is kept
// only as its JSON body, so the client holds little besides what it sends.
type serveInput struct {
	body []byte // JSON spec.Instance
	path string // /v1/solve?… with every solver option explicit
}

// instance decodes the input's instance, as the benchmark's own copy.
func (in serveInput) instance() (spec.Instance, error) {
	var inst spec.Instance
	err := json.Unmarshal(in.body, &inst)
	return inst, err
}

func solvePath(solver string) string {
	p := "/v1/solve?objective=be&seed=1&solver=" + solver
	if solver == service.SolverPortfolio {
		p += "&rounds=2&ops=" + portfolioOps
	}
	return p
}

// genInputs draws n paper-scale instances: 4×4 mesh, the default six V/F
// levels, layered DAGs, α = 1.3. Mixed workloads spread M over 12–28 and
// alternate heuristic/repair; the portfolio workload uses M = 20. An
// instance already in seen (by body fingerprint) is drawn again, so no
// two inputs of a run share a cache entry whatever the seeds.
func genInputs(k serveKind, rng *rand.Rand, n int, seen map[uint64]bool) ([]serveInput, error) {
	out := make([]serveInput, 0, n)
	for len(out) < n {
		m, solver := 12+rng.Intn(17), service.SolverHeuristic
		if len(out)%2 == 1 {
			solver = service.SolverRepair
		}
		if k.portfolio {
			m, solver = 20, service.SolverPortfolio
		}
		g, err := taskgen.Layered(taskgen.DefaultParams(m, rng.Int63()), 4, 3)
		if err != nil {
			return nil, err
		}
		inst := spec.Instance{Mesh: spec.Mesh{W: 4, H: 4}, Graph: spec.FromGraph(g), Alpha: 1.3}
		body, err := json.Marshal(inst)
		if err != nil {
			return nil, err
		}
		if fp := fingerprint(body); !seen[fp] {
			seen[fp] = true
			out = append(out, serveInput{body: body, path: solvePath(solver)})
		}
	}
	return out, nil
}

// serveInputs returns a workload's inputs, the warm-up requests and the
// order of the timed requests, as indices into inputs. Warm-up and
// serve-hot's pairs come from fixedSeed; the timed requests of a miss
// workload are distinct instances from --seed, and serve-hot's seed only
// shuffles each cycle over its pairs.
func serveInputs(o options, k serveKind) (inputs []serveInput, warm, order []int, err error) {
	n := int(math.Round(float64(o.seconds) * k.rate))
	if n < minServeOps {
		n = minServeOps
	}
	seen := map[uint64]bool{}
	fixed := rand.New(rand.NewSource(fixedSeed))
	rng := rand.New(rand.NewSource(o.seed))
	if k.pairs > 0 {
		if inputs, err = genInputs(k, fixed, k.pairs, seen); err != nil {
			return nil, nil, nil, err
		}
		perm := make([]int, k.pairs)
		for i := range perm {
			perm[i] = i
			warm = append(warm, i)
		}
		// Whole cycles, so every pair is asked equally often.
		for len(order) < n {
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			order = append(order, perm...)
		}
		return inputs, warm, order, nil
	}
	if inputs, err = genInputs(k, fixed, k.warmup, seen); err != nil {
		return nil, nil, nil, err
	}
	timed, err := genInputs(k, rng, n, seen)
	if err != nil {
		return nil, nil, nil, err
	}
	for i := range inputs {
		warm = append(warm, i)
	}
	for i := range timed {
		order = append(order, len(inputs)+i)
	}
	return append(inputs, timed...), warm, order, nil
}

// stack is one running service behind a loopback listener, with the HTTP
// client that drives it.
type stack struct {
	svc    *service.Service
	arch   *archive.Store
	srv    *http.Server
	served chan error
	dir    string
	base   string
	hc     *http.Client
}

// startStack opens an archive in a fresh directory and starts a service
// configured like nocdeployd's defaults on an ephemeral loopback port.
func startStack(tmpRoot string, clients int, sinks []obs.Sink) (*stack, error) {
	dir, err := os.MkdirTemp(tmpRoot, "archive-")
	if err != nil {
		return nil, err
	}
	arch, err := archive.Open(archive.Options{Dir: dir, MaxBytes: 256 << 20})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	svc := service.New(service.Config{
		QueueDepth:     64,
		CacheSize:      256,
		MaxJobs:        256,
		MaxTimeout:     time.Hour,
		Metrics:        obs.NewMetrics(),
		TraceBuffer:    4096,
		StreamBuffer:   256,
		Heartbeat:      15 * time.Second,
		FlightRecorder: 64,
		TraceSinks:     sinks,
		Archive:        arch,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	st := &stack{
		svc:    svc,
		arch:   arch,
		srv:    &http.Server{Handler: svc.Handler()},
		served: make(chan error, 1),
		dir:    dir,
		base:   "http://" + ln.Addr().String(),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	go func() { st.served <- st.srv.Serve(ln) }()
	return st, nil
}

// drainArchive waits until every accepted archive record is durable, so
// no write of an earlier phase lands in the next one.
func (st *stack) drainArchive() error {
	for i := 0; st.arch.StoreStats().Pending > 0; i++ {
		if i > 300000 {
			return errors.New("archive writer did not drain within 30s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// stop shuts the listener down, drains the service (which closes the
// archive) and removes the archive directory.
func (st *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	st.svc.Close()
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	st.hc.CloseIdleConnections()
	return errors.Join(err, os.RemoveAll(st.dir))
}

// reply is what the client recorded for one timed request. The body is
// kept once per distinct (input, digest) in the loop's bodies map.
type reply struct {
	input  int
	status int // 0: no HTTP response (transport error)
	digest uint64
	feas   int8    // X-Solve-Feasible, see parseFeas
	reqID  string  // X-Request-ID
	start  float64 // seconds since the benchmark epoch
	lat    float64 // seconds, send to last byte
	lane   int
}

// Values of the X-Solve-Feasible header as recorded.
const (
	feasOther int8 = iota // missing, or neither "true" nor "false"
	feasTrue
	feasFalse
)

func parseFeas(h string) int8 {
	switch h {
	case "true":
		return feasTrue
	case "false":
		return feasFalse
	}
	return feasOther
}

// bodySeed keys the digests that tell a loop's answers apart; they are
// cheap enough for the timed loop, but valid only within one process.
var bodySeed = maphash.MakeSeed()

// bodyKey addresses one distinct answer to one input.
type bodyKey struct {
	input  int
	digest uint64
}

// loopResult is one closed-loop phase.
type loopResult struct {
	replies      []reply
	bodies       map[bodyKey][]byte
	wall         time.Duration
	transportErr error // the first request that got no response, if any
}

// closedLoop sends requests for inputs[order[0]], inputs[order[1]], … from
// `clients` goroutines; each sends its next request only after the
// previous one's last byte arrived.
func closedLoop(st *stack, inputs []serveInput, order []int, clients int, epoch time.Time) loopResult {
	replies := make([]reply, len(order))
	local := make([]map[bodyKey][]byte, clients)
	laneErr := make([]error, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		local[c] = map[bodyKey][]byte{}
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				in := order[i]
				r := reply{input: in, lane: lane}
				sent := time.Now()
				r.start = sent.Sub(epoch).Seconds()
				resp, err := st.hc.Post(st.base+inputs[in].path, "application/json", bytes.NewReader(inputs[in].body))
				if err == nil {
					buf.Reset()
					_, err = buf.ReadFrom(resp.Body)
					err = errors.Join(err, resp.Body.Close())
					r.status = resp.StatusCode
					r.feas = parseFeas(resp.Header.Get("X-Solve-Feasible"))
					r.reqID = resp.Header.Get("X-Request-ID")
				}
				r.lat = time.Since(sent).Seconds()
				if err != nil {
					r.status = 0
					if laneErr[lane] == nil {
						laneErr[lane] = err
					}
				} else {
					r.digest = maphash.Bytes(bodySeed, buf.Bytes())
					k := bodyKey{in, r.digest}
					if _, seen := local[lane][k]; !seen {
						local[lane][k] = bytes.Clone(buf.Bytes())
					}
				}
				replies[i] = r
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	bodies := local[0]
	for _, m := range local[1:] {
		for k, b := range m {
			bodies[k] = b
		}
	}
	return loopResult{replies: replies, bodies: bodies, wall: wall, transportErr: errors.Join(laneErr...)}
}

// verdict is the outcome of checking one distinct answer body.
type verdict struct {
	err       error
	feasible  bool
	maxEnergy float64 // recomputed by core.Validate (J)
	dep       *core.Deployment
}

// checkAnswer re-validates one served answer body against the
// benchmark's own build of the instance: it must decode, pass
// core.Validate's structure checks, report the feasibility core.Validate
// finds, and carry the recomputed maxEnergy within numeric.Eps. When ref
// is non-nil (portfolio) the answer must also be no worse than the
// repaired heuristic at the same seed, the engine's pinned guarantee.
func checkAnswer(sys *core.System, body []byte, ref *core.SolveInfo) verdict {
	var sd spec.Deployment
	if err := json.Unmarshal(body, &sd); err != nil {
		return verdict{err: fmt.Errorf("decoding answer: %w", err)}
	}
	d := sd.ToDeployment()
	m, verr := core.Validate(sys, d)
	if m == nil {
		return verdict{err: fmt.Errorf("answer fails validation: %w", verr)}
	}
	feasible := verr == nil
	if feasible != sd.Feasible {
		return verdict{err: fmt.Errorf("answer says feasible=%t, validation says %t (%v)", sd.Feasible, feasible, verr)}
	}
	if !numeric.Eq(sd.MaxEnergy, m.MaxEnergy) {
		return verdict{err: fmt.Errorf("answer maxEnergy %g, recomputed %g", sd.MaxEnergy, m.MaxEnergy)}
	}
	if ref != nil {
		if ref.Feasible && !feasible {
			return verdict{err: errors.New("portfolio infeasible where repair is feasible")}
		}
		if numeric.GtTol(sd.Objective, ref.Objective, 1e-12) {
			return verdict{err: fmt.Errorf("portfolio objective %g worse than repair %g", sd.Objective, ref.Objective)}
		}
	}
	return verdict{feasible: feasible, maxEnergy: m.MaxEnergy, dep: d}
}

// replyErr is the failure of one timed request, or nil when its answer
// passed every check. A transport error, a non-200 status (429 and 5xx
// included) and a failed answer check each fail exactly that request.
func replyErr(r reply, v verdict) error {
	want := feasFalse
	if v.feasible {
		want = feasTrue
	}
	switch {
	case r.status == 0:
		return errors.New("no HTTP response")
	case r.status != http.StatusOK:
		return fmt.Errorf("HTTP %d", r.status)
	case v.err != nil:
		return v.err
	case r.feas != want:
		return fmt.Errorf("X-Solve-Feasible disagrees with validation (feasible=%t)", v.feasible)
	}
	return nil
}

// tally folds checked replies into the end-to-end counts.
type tally struct {
	attempted, passed, feasible int
	energiesMJ                  []float64 // feasible answers, in reply order
	firstErr                    error
}

// account counts one reply and reports whether it passed every check.
func (t *tally) account(r reply, v verdict) bool {
	t.attempted++
	if err := replyErr(r, v); err != nil {
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("request %s for input %d: %w", r.reqID, r.input, err)
		}
		return false
	}
	t.passed++
	if v.feasible {
		t.feasible++
		t.energiesMJ = append(t.energiesMJ, v.maxEnergy*1e3)
	}
	return true
}

// checkLoop validates every distinct answer of a phase once, against the
// benchmark's own build of its input, on `workers` goroutines.
func checkLoop(k serveKind, inputs []serveInput, lr loopResult, workers int) (map[bodyKey]verdict, error) {
	byInput := map[int][]bodyKey{}
	for key := range lr.bodies {
		byInput[key.input] = append(byInput[key.input], key)
	}
	groups := make([][]bodyKey, 0, len(byInput))
	for _, keys := range byInput {
		groups = append(groups, keys)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0].input < groups[j][0].input })
	checked, err := runner.Map(context.Background(), workers, len(groups), func(_ context.Context, i int) (map[bodyKey]verdict, error) {
		return checkInput(k, inputs[groups[i][0].input], groups[i], lr.bodies), nil
	})
	if err != nil {
		return nil, err
	}
	verdicts := make(map[bodyKey]verdict, len(lr.bodies))
	for _, m := range checked {
		for key, v := range m {
			verdicts[key] = v
		}
	}
	return verdicts, nil
}

// checkInput builds one input's system and checks every distinct answer
// it received.
func checkInput(k serveKind, in serveInput, keys []bodyKey, bodies map[bodyKey][]byte) map[bodyKey]verdict {
	out := make(map[bodyKey]verdict, len(keys))
	inst, err := in.instance()
	var sys *core.System
	if err == nil {
		sys, err = inst.Build()
	}
	var ref *core.SolveInfo
	if err == nil && k.portfolio {
		_, ref, err = core.HeuristicWithRepair(sys, core.Options{}, 1, 0)
	}
	for _, key := range keys {
		if err != nil {
			out[key] = verdict{err: fmt.Errorf("benchmark build of the instance: %w", err)}
			continue
		}
		out[key] = checkAnswer(sys, bodies[key], ref)
	}
	return out
}

// servePhase is one set-up plus timed closed loop on a fresh service.
type servePhase struct {
	setups     []float64 // seconds per set-up repetition
	loop       loopResult
	rt0, rt1   runtimeSnap
	rssMB      float64
	cacheDelta cache.Stats
	appends    int64
	drops      int64
}

// runPhase sets the service up `reps` times (each: archive open,
// service.New, listener, warm-up requests, archive drained), keeps the
// last one, and runs the timed closed loop on it. The sink, when given,
// is attached through TraceSinks and counts only the timed phase,
// including the archive writes that drain after the last response.
func runPhase(o options, inputs []serveInput, warm, order []int, clients, reps int, epoch time.Time, sink *countingSink) (*servePhase, error) {
	var sinks []obs.Sink
	if sink != nil {
		sinks = []obs.Sink{sink}
	}
	tmp := filepath.Join(o.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	ph := &servePhase{}
	var st *stack
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		var err error
		if st, err = startStack(tmp, clients, sinks); err != nil {
			return nil, err
		}
		wl := closedLoop(st, inputs, warm, clients, epoch)
		for _, rp := range wl.replies {
			if rp.status != http.StatusOK {
				return nil, errors.Join(fmt.Errorf("warm-up request failed: status %d", rp.status), wl.transportErr, st.stop())
			}
		}
		if err := st.drainArchive(); err != nil {
			return nil, errors.Join(err, st.stop())
		}
		ph.setups = append(ph.setups, time.Since(t0).Seconds())
		if r < reps-1 {
			if err := st.stop(); err != nil {
				return nil, err
			}
		}
	}
	runtime.GC()
	cs0, as0 := st.svc.CacheStats(), st.arch.StoreStats()
	ph.rt0 = snapRuntime()
	if sink != nil {
		sink.active.Store(true)
	}
	ph.loop = closedLoop(st, inputs, order, clients, epoch)
	ph.rt1 = snapRuntime()
	if ph.loop.transportErr != nil {
		logf("transport error: %v", ph.loop.transportErr)
	}
	ph.rssMB = peakRSSMB()
	cs1 := st.svc.CacheStats()
	err := st.stop()
	if sink != nil {
		sink.active.Store(false)
	}
	if err != nil {
		return nil, err
	}
	as1 := st.arch.StoreStats()
	ph.cacheDelta = cache.Stats{
		Hits:      cs1.Hits - cs0.Hits,
		Misses:    cs1.Misses - cs0.Misses,
		Coalesced: cs1.Coalesced - cs0.Coalesced,
		Evictions: cs1.Evictions - cs0.Evictions,
	}
	ph.appends, ph.drops = as1.Appends-as0.Appends, as1.Dropped-as0.Dropped
	return ph, nil
}

// runServe runs one HTTP workload: its end-to-end metrics, or as one
// phase of a traced pair (--phase) its answers and, traced, its
// per-layer metrics. A phase sets up once; setup_s needs setupReps.
func runServe(o options, k serveKind) (*report, error) {
	epoch := time.Now()
	clients := runtime.NumCPU()
	if clients > 2 {
		clients = 2
	}
	inputs, warm, order, err := serveInputs(o, k)
	if err != nil {
		return nil, err
	}
	var sink *countingSink
	if o.phase == phaseTraced {
		sink = newCountingSink(epoch)
	}
	reps := setupReps
	if o.phase != "" {
		reps = 1
	}
	ph, err := runPhase(o, inputs, warm, order, clients, reps, epoch, sink)
	if err != nil {
		return nil, err
	}
	verdicts, err := checkLoop(k, inputs, ph.loop, clients)
	if err != nil {
		return nil, err
	}
	fps := make(map[bodyKey]uint64, len(ph.loop.bodies))
	for key, b := range ph.loop.bodies {
		fps[key] = fingerprint(b)
	}
	rep := &report{WallS: ph.loop.wall.Seconds()}
	var t tally
	for _, r := range ph.loop.replies {
		key := bodyKey{r.input, r.digest}
		rep.Passed = append(rep.Passed, t.account(r, verdicts[key]))
		rep.Answers = append(rep.Answers, fps[key])
	}
	if t.firstErr != nil {
		logf("%s: %d of %d requests failed; first: %v", k.name, t.attempted-t.passed, t.attempted, t.firstErr)
	}
	if sink == nil {
		rep.Result = serveEndToEnd(k, ph, t)
		return rep, nil
	}
	pl, err := serveLayers(o, inputs, ph, verdicts, sink)
	if err != nil {
		return nil, err
	}
	rep.Result = result{Correct: t.passed == t.attempted, Attempted: t.attempted, Failed: t.attempted - t.passed, Metrics: pl}
	return rep, nil
}

// serveEndToEnd assembles the end-to-end metrics of a phase.
func serveEndToEnd(k serveKind, ph *servePhase, t tally) result {
	n := len(ph.loop.replies)
	lat := make([]float64, n)
	for i, r := range ph.loop.replies {
		lat[i] = r.lat
	}
	ms := sortedMillis(lat)
	tailV, tailL := tail(ms, p90)
	gm, _ := gmean(t.energiesMJ) // 0 when no answer was feasible
	wall := ph.loop.wall.Seconds()
	logTail(k.name, tailL, len(ms))
	return result{
		Correct:   t.passed == t.attempted,
		Attempted: t.attempted,
		Failed:    t.attempted - t.passed,
		Metrics: map[string]metric{
			"setup_s":            {median(ph.setups), "s"},
			"wall_s":             {wall, "s"},
			"ops_per_s":          {float64(n) / wall, "1/s"},
			"latency_p50_ms":     {median(ms), "ms"},
			"latency_tail_ms":    {tailV, "ms"},
			"success_ratio":      {ratio(float64(t.passed), float64(t.attempted)), "ratio"},
			"feasible_ratio":     {ratio(float64(t.feasible), float64(t.attempted)), "ratio"},
			"objective_gmean_mj": {gm, "mJ"},
			"alloc_mb":           {float64(ph.rt1.totalAlloc-ph.rt0.totalAlloc) / 1e6 / float64(n), "MB/op"},
			"peak_rss_mb":        {ph.rssMB, "MB"},
		},
	}
}

// fingerprint identifies a body across processes (FNV-1a, 64 bits).
func fingerprint(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // a hash.Hash never returns an error
	return h.Sum64()
}
