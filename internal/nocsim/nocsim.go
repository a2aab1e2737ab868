// Package nocsim is an event-driven wormhole network simulator for the 2D
// mesh of package noc. Packets are flit trains that pipeline across links
// (one flit per link per cycle) behind their head flit; links are granted
// in arrival order (FIFO, infinite buffers — a virtual-cut-through
// approximation of wormhole switching without credit backpressure).
//
// Its role in the reproduction is validation: the analytic path time
// t[β][γ][ρ] used by the deployment formulation is store-and-forward
// conservative (per-hop serialization), so the pipelined latencies observed
// here must never exceed it for the same route. Tests assert exactly that.
package nocsim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"nocdeploy/internal/noc"
	"nocdeploy/internal/numeric"
)

// Config sets the microarchitectural constants of the simulation.
type Config struct {
	FlitBytes   float64 // bytes per flit; default 4
	CycleTime   float64 // seconds per cycle; default 1e-9 (1 GHz NoC)
	RouterDelay float64 // router pipeline cycles per hop; default 3
}

func (c Config) withDefaults() Config {
	if numeric.IsZero(c.FlitBytes) {
		c.FlitBytes = 4
	}
	if numeric.IsZero(c.CycleTime) {
		c.CycleTime = 1e-9
	}
	if numeric.IsZero(c.RouterDelay) {
		c.RouterDelay = 3
	}
	return c
}

// Packet is one message to transport.
type Packet struct {
	ID     int
	Bytes  float64
	Route  []int   // router sequence, source first (noc.Path.Nodes)
	Inject float64 // injection time in seconds
}

// PacketResult reports one packet's delivery.
type PacketResult struct {
	ID      int
	Arrive  float64 // seconds: last flit delivered at the destination
	Latency float64 // Arrive − Inject
	Hops    int
}

// Stats aggregates a simulation.
type Stats struct {
	Results []PacketResult
	// LinkBusy maps a directed link (from, to) to its busy time in seconds.
	LinkBusy map[[2]int]float64
	// Span is the simulated time from the first injection to the last
	// delivery.
	Span float64
}

// MaxLinkUtilization returns the highest busy fraction over all links.
func (st *Stats) MaxLinkUtilization() float64 {
	var hi float64
	for _, b := range st.LinkBusy {
		if u := b / st.Span; u > hi {
			hi = u
		}
	}
	return hi
}

// event is a packet head requesting its next link.
type event struct {
	at  float64 // cycles
	pkt int     // index into packets
	hop int     // link index along the route
	seq int     // tie-break: FIFO by event creation
}

type eventPQ []event

func (q eventPQ) Len() int { return len(q) }
func (q eventPQ) Less(i, j int) bool {
	if q[i].at != q[j].at { //lint:allow floateq — event-queue tie-break; tolerance would break heap ordering
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventPQ) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventPQ) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// Simulate transports the packets over the mesh and returns delivery
// statistics.
func Simulate(mesh *noc.Mesh, packets []Packet, cfg Config) (*Stats, error) {
	cfg = cfg.withDefaults()
	for _, p := range packets {
		if len(p.Route) == 0 {
			return nil, fmt.Errorf("nocsim: packet %d has an empty route", p.ID)
		}
		if p.Bytes <= 0 {
			return nil, fmt.Errorf("nocsim: packet %d has %g bytes", p.ID, p.Bytes)
		}
		for i := 0; i+1 < len(p.Route); i++ {
			if mesh.ManhattanDistance(p.Route[i], p.Route[i+1]) != 1 {
				return nil, fmt.Errorf("nocsim: packet %d route hops %d→%d are not adjacent",
					p.ID, p.Route[i], p.Route[i+1])
			}
		}
	}

	// Per-link serialization honors the mesh's (possibly jittered) link
	// rates; the default flit rate is the fallback for unknown links.
	serializeCycles := func(p Packet, a, b int) float64 {
		if lpb, ok := mesh.LinkLatencyPerByte(a, b); ok {
			return p.Bytes * lpb / cfg.CycleTime
		}
		return math.Ceil(p.Bytes / cfg.FlitBytes)
	}
	linkFree := map[[2]int]float64{} // cycles at which the link is free
	busy := map[[2]int]float64{}     // cumulative busy cycles

	st := &Stats{LinkBusy: map[[2]int]float64{}}
	pq := &eventPQ{}
	heap.Init(pq)
	seq := 0
	firstInject, lastArrive := math.Inf(1), 0.0
	for i, p := range packets {
		at := p.Inject / cfg.CycleTime
		if p.Inject < firstInject {
			firstInject = p.Inject
		}
		if len(p.Route) == 1 {
			// Local delivery: no network traversal.
			st.Results = append(st.Results, PacketResult{ID: p.ID, Arrive: p.Inject, Latency: 0})
			if p.Inject > lastArrive {
				lastArrive = p.Inject
			}
			continue
		}
		heap.Push(pq, event{at: at, pkt: i, hop: 0, seq: seq})
		seq++
	}

	// bottleneck[i] is the slowest serialization (cycles) seen so far along
	// packet i's route: the train can stream no faster than its slowest
	// upstream link (backpressure-limited wormhole).
	bottleneck := make([]float64, len(packets))
	for pq.Len() > 0 {
		ev := heap.Pop(pq).(event)
		p := packets[ev.pkt]
		link := [2]int{p.Route[ev.hop], p.Route[ev.hop+1]}
		start := math.Max(ev.at, linkFree[link])
		cross := start + cfg.RouterDelay // head flit through router + link
		f := serializeCycles(p, link[0], link[1])
		if f > bottleneck[ev.pkt] {
			bottleneck[ev.pkt] = f
		}
		f = bottleneck[ev.pkt]
		// The link serializes the whole train behind the head, at the
		// bottleneck-so-far rate.
		linkFree[link] = cross + f
		busy[link] += cfg.RouterDelay + f
		if ev.hop+2 < len(p.Route) {
			heap.Push(pq, event{at: cross, pkt: ev.pkt, hop: ev.hop + 1, seq: seq})
			seq++
			continue
		}
		// Head reached the destination; the tail arrives f cycles later.
		arrive := (cross + f) * cfg.CycleTime
		st.Results = append(st.Results, PacketResult{
			ID:      p.ID,
			Arrive:  arrive,
			Latency: arrive - p.Inject,
			Hops:    len(p.Route) - 1,
		})
		if arrive > lastArrive {
			lastArrive = arrive
		}
	}
	for l, b := range busy {
		st.LinkBusy[l] = b * cfg.CycleTime
	}
	if math.IsInf(firstInject, 1) {
		firstInject = 0
	}
	st.Span = lastArrive - firstInject
	if st.Span <= 0 {
		st.Span = cfg.CycleTime
	}
	sort.Slice(st.Results, func(i, j int) bool { return st.Results[i].ID < st.Results[j].ID })
	return st, nil
}

// ZeroLoadLatency returns the analytic unloaded latency for a route of h
// hops carrying the given bytes: h router traversals plus one train
// serialization.
func ZeroLoadLatency(cfg Config, hops int, bytes float64) float64 {
	cfg = cfg.withDefaults()
	return (float64(hops)*cfg.RouterDelay + math.Ceil(bytes/cfg.FlitBytes)) * cfg.CycleTime
}
