package archive

import (
	"sync"

	"nocdeploy/internal/obs"
)

// Collector is an obs.Sink that folds the live request-tagged event
// stream into the per-solve data a Record archives: the incumbent
// trajectory (bb.incumbent / engine.iter events) and per-operator engine
// stats (engine.op.apply). The service registers one Collector among its
// trace sinks when archiving is on, and calls Take when a solve finishes.
//
// Memory is bounded regardless of traffic: at most maxRequests requests
// are tracked at once (oldest evicted first — an evicted request archives
// with an empty trajectory, never an error), and each trajectory holds at
// most maxPoints points, decimated like a metrics series (obs.Decimated)
// — long solves keep their shape, not every sample.
type Collector struct {
	mu          sync.Mutex
	maxRequests int
	maxPoints   int
	reqs        map[string]*foldState
	order       []string // insertion order, for eviction
}

type foldState struct {
	traj obs.Decimated[TrajPoint]
	ops  map[string]*OpStat
}

// NewCollector builds a Collector tracking at most maxRequests live
// requests (≤0 means 1024) with at most maxPoints trajectory points each
// (≤0 means obs.SeriesCap).
func NewCollector(maxRequests, maxPoints int) *Collector {
	if maxRequests <= 0 {
		maxRequests = 1024
	}
	if maxPoints <= 0 {
		maxPoints = obs.SeriesCap
	}
	return &Collector{
		maxRequests: maxRequests,
		maxPoints:   maxPoints,
		reqs:        map[string]*foldState{},
	}
}

// Write folds one event. Events without a request ID, and kinds the
// archive does not fold, are ignored. Runs under the Trace mutex like
// every sink, so no internal ordering races with Take (which locks).
func (c *Collector) Write(e obs.Event) {
	if e.Req == "" {
		return
	}
	switch e.Kind {
	case obs.BBIncumbent, obs.EngineIter:
		c.mu.Lock()
		c.state(e.Req).traj.Add(TrajPoint{T: e.T, Obj: e.Obj}, c.maxPoints)
		c.mu.Unlock()
	case obs.EngineOpApply:
		c.mu.Lock()
		st := c.state(e.Req)
		if st.ops == nil {
			st.ops = map[string]*OpStat{}
		}
		op := st.ops[e.Label]
		if op == nil {
			op = &OpStat{}
			st.ops[e.Label] = op
		}
		op.Applies++
		op.Seconds += e.Dur
		if e.Phase == "improved" {
			op.Improvements++
		}
		c.mu.Unlock()
	}
}

// state returns (creating if needed) the fold for one request, evicting
// the oldest tracked request when the table is full. Caller holds mu.
func (c *Collector) state(req string) *foldState {
	st := c.reqs[req]
	if st != nil {
		return st
	}
	if len(c.order) >= c.maxRequests {
		delete(c.reqs, c.order[0])
		c.order = c.order[1:]
	}
	st = &foldState{}
	c.reqs[req] = st
	c.order = append(c.order, req)
	return st
}

// Take removes and returns the folded trajectory and operator stats for
// one finished request; nil-safe, and an untracked request returns empty
// results. The Collector forgets the request, so tracked state never
// outlives its solve.
func (c *Collector) Take(req string) ([]TrajPoint, map[string]OpStat) {
	if c == nil || req == "" {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.reqs[req]
	if st == nil {
		return nil, nil
	}
	delete(c.reqs, req)
	for i, id := range c.order {
		if id == req {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	var ops map[string]OpStat
	if len(st.ops) > 0 {
		ops = make(map[string]OpStat, len(st.ops))
		for name, op := range st.ops {
			ops[name] = *op
		}
	}
	return st.traj.Points(), ops
}

// Close implements obs.Sink; nothing to flush.
func (c *Collector) Close() error { return nil }
