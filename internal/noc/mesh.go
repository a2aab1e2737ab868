// Package noc models the 2D-mesh Network-on-Chip of the paper: N processors,
// each attached to a router, routers connected by bidirectional link pairs.
//
// For every ordered processor pair (β, γ) the package precomputes P = 2
// candidate routing paths:
//
//	ρ = 0: the energy-oriented path (Dijkstra shortest path on link energy)
//	ρ = 1: the time-oriented path (Dijkstra shortest path on link latency)
//
// Each path is stored once, in one [β][γ][ρ] table, and carries the paper's
// two communication costs itself:
//
//	t[β][γ][ρ]    — seconds to move one byte from β to γ over path ρ
//	e[β][γ][k][ρ] — joules consumed at processor/router k per byte when
//	                data moves from β to γ over path ρ; zero at every k
//	                off the path, so the path keeps one value per router
//	                it visits
//
// Hop energy is attributed to the router that forwards the flit (source
// router included, destination router included for ejection), matching the
// paper's convention that router energy is folded into its processor.
package noc

import (
	"fmt"
	"math"
	"math/rand"

	"nocdeploy/internal/numeric"
)

// LinkParams describes the cost of one directed link between adjacent
// routers, and the local router traversal cost.
type LinkParams struct {
	EnergyPerByte  float64 // joules to push one byte across the link
	LatencyPerByte float64 // seconds per byte of serialization on the link
	HopLatency     float64 // fixed per-hop router pipeline latency (seconds)
	RouterEnergy   float64 // joules per byte for the router traversal itself
}

// DefaultLinkParams returns costs typical of a ~1 GHz, 32-bit-flit mesh:
// 4 bytes per cycle per link and a few pJ per byte per hop.
func DefaultLinkParams() LinkParams {
	return LinkParams{
		EnergyPerByte:  6.0e-12, // 6 pJ/byte wire energy
		LatencyPerByte: 0.25e-9, // 4 bytes/cycle at 1 GHz
		HopLatency:     3.0e-9,  // 3-cycle router pipeline
		RouterEnergy:   4.0e-12, // 4 pJ/byte router switching
	}
}

// link is one directed edge of the mesh graph.
type link struct {
	to int
	LinkParams
}

// Path is a concrete route through the mesh, listed as the sequence of
// routers it visits, source and destination included, with the cost of
// moving one byte along it.
type Path struct {
	Nodes []int
	// Energy[i] is e[β][γ][Nodes[i]][ρ], the joules per byte charged at
	// router Nodes[i]; the destination's entry includes ejection.
	Energy []float64
	// Time is t[β][γ][ρ], the seconds per byte along the path.
	Time float64
}

// Hops returns the number of links traversed.
func (p Path) Hops() int {
	if len(p.Nodes) == 0 {
		return 0
	}
	return len(p.Nodes) - 1
}

// NumPaths is the paper's P: the number of candidate routing paths kept per
// ordered processor pair.
const NumPaths = 2

// PathEnergy is the index of the energy-oriented path.
const PathEnergy = 0

// PathTime is the index of the time-oriented path.
const PathTime = 1

// Mesh is a W×H 2D-mesh NoC with heterogeneous per-link costs.
type Mesh struct {
	W, H  int
	adj   [][]link           // adjacency list per router
	paths [][][NumPaths]Path // paths[β][γ][ρ]
}

// Config controls mesh construction.
type Config struct {
	W, H int
	Link LinkParams
	// Jitter, if positive, perturbs every link's energy and latency by a
	// uniform factor in [1-Jitter, 1+Jitter] so that the energy-oriented
	// and time-oriented shortest paths genuinely differ. Seed makes the
	// perturbation reproducible.
	Jitter float64
	Seed   int64
}

// NewMesh builds the mesh and precomputes all candidate paths with their
// energy and time.
func NewMesh(cfg Config) (*Mesh, error) {
	if cfg.W <= 0 || cfg.H <= 0 {
		return nil, fmt.Errorf("noc: mesh dimensions %dx%d must be positive", cfg.W, cfg.H)
	}
	if cfg.Link.EnergyPerByte <= 0 || cfg.Link.LatencyPerByte <= 0 {
		return nil, fmt.Errorf("noc: link energy and latency must be positive")
	}
	if cfg.Jitter < 0 || cfg.Jitter >= 1 {
		return nil, fmt.Errorf("noc: jitter %g must be in [0, 1)", cfg.Jitter)
	}
	m := &Mesh{W: cfg.W, H: cfg.H}
	n := cfg.W * cfg.H
	m.adj = make([][]link, n)
	rng := rand.New(rand.NewSource(cfg.Seed))
	jitter := func() float64 {
		if numeric.IsZero(cfg.Jitter) {
			return 1
		}
		return 1 - cfg.Jitter + 2*cfg.Jitter*rng.Float64()
	}
	addLink := func(a, b int) {
		lp := cfg.Link
		lp.EnergyPerByte *= jitter()
		lp.LatencyPerByte *= jitter()
		m.adj[a] = append(m.adj[a], link{to: b, LinkParams: lp})
	}
	for y := 0; y < cfg.H; y++ {
		for x := 0; x < cfg.W; x++ {
			id := m.ID(x, y)
			if x+1 < cfg.W {
				addLink(id, m.ID(x+1, y))
				addLink(m.ID(x+1, y), id)
			}
			if y+1 < cfg.H {
				addLink(id, m.ID(x, y+1))
				addLink(m.ID(x, y+1), id)
			}
		}
	}
	if err := m.computePaths(); err != nil {
		return nil, err
	}
	return m, nil
}

// Default returns a w×h mesh with default link parameters and a small
// deterministic jitter, so the two candidate paths differ.
func Default(w, h int) *Mesh {
	m, err := NewMesh(Config{W: w, H: h, Link: DefaultLinkParams(), Jitter: 0.25, Seed: 1})
	if err != nil {
		//lint:allow nopanic — Must-style constructor on static defaults; NewMesh is the fallible path
		panic("noc: default mesh construction failed: " + err.Error())
	}
	return m
}

// N returns the number of routers/processors.
func (m *Mesh) N() int { return m.W * m.H }

// ID maps mesh coordinates to a processor id.
func (m *Mesh) ID(x, y int) int { return y*m.W + x }

// Coord maps a processor id back to mesh coordinates.
func (m *Mesh) Coord(id int) (x, y int) { return id % m.W, id / m.W }

// ManhattanDistance returns the hop distance between two processors.
func (m *Mesh) ManhattanDistance(a, b int) int {
	ax, ay := m.Coord(a)
	bx, by := m.Coord(b)
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// dijkstra computes shortest paths from src under the given per-link weight
// function and returns the predecessor array.
func (m *Mesh) dijkstra(src int, weight func(LinkParams) float64) []int {
	n := m.N()
	dist := make([]float64, n)
	prev := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	// The mesh is tiny (N ≤ a few hundred); a linear-scan Dijkstra is fine
	// and avoids heap bookkeeping.
	for {
		u, best := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < best {
				u, best = i, dist[i]
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for _, l := range m.adj[u] {
			if d := dist[u] + weight(l.LinkParams); d < dist[l.to]-1e-18 {
				dist[l.to] = d
				prev[l.to] = u
			}
		}
	}
	return prev
}

// extractPath rebuilds the routers of the path src→dst from a predecessor
// array.
func extractPath(prev []int, src, dst int) []int {
	hops := 0
	for v := dst; v != src; v = prev[v] {
		hops++
	}
	nodes := make([]int, hops+1)
	for v, i := dst, hops; i >= 0; v, i = prev[v], i-1 {
		nodes[i] = v
	}
	return nodes
}

// linkBetween returns the directed link a→b, or an error if the mesh has
// no such link — which would indicate a broken path.
func (m *Mesh) linkBetween(a, b int) (LinkParams, error) {
	for _, l := range m.adj[a] {
		if l.to == b {
			return l.LinkParams, nil
		}
	}
	return LinkParams{}, fmt.Errorf("noc: no link %d→%d", a, b)
}

// computePaths fills the path table.
func (m *Mesh) computePaths() error {
	n := m.N()
	eject := m.ejectEnergyPerByte()
	m.paths = make([][][NumPaths]Path, n)
	for src := 0; src < n; src++ {
		m.paths[src] = make([][NumPaths]Path, n)
		prev := [NumPaths][]int{
			PathEnergy: m.dijkstra(src, func(l LinkParams) float64 { return l.EnergyPerByte + l.RouterEnergy }),
			PathTime:   m.dijkstra(src, timeWeight),
		}
		for dst := 0; dst < n; dst++ {
			for rho := range prev {
				if dst == src {
					// Same-processor communication is free (paper, Sec. II-A2).
					m.paths[src][dst][rho] = Path{Nodes: []int{src}, Energy: []float64{0}}
					continue
				}
				p, err := m.costPath(extractPath(prev[rho], src, dst), eject)
				if err != nil {
					return err
				}
				m.paths[src][dst][rho] = p
			}
		}
	}
	return nil
}

// costPath charges the per-byte energy of each router on nodes and sums
// the per-byte time, hop by hop.
func (m *Mesh) costPath(nodes []int, eject float64) (Path, error) {
	p := Path{Nodes: nodes, Energy: make([]float64, len(nodes))}
	for i := 0; i+1 < len(nodes); i++ {
		lp, err := m.linkBetween(nodes[i], nodes[i+1])
		if err != nil {
			return Path{}, err
		}
		p.Time += timeWeight(lp)
		// Wire energy split evenly between the two endpoints; router
		// traversal energy charged to the forwarding node.
		p.Energy[i] += lp.RouterEnergy + lp.EnergyPerByte/2
		p.Energy[i+1] += lp.EnergyPerByte / 2
	}
	// Ejection at the destination router.
	p.Energy[len(nodes)-1] += eject
	return p, nil
}

// ejectEnergyPerByte is the cost of moving a byte from the destination
// router into its processor; we reuse the router traversal energy.
func (m *Mesh) ejectEnergyPerByte() float64 {
	// All links share RouterEnergy up to jitter; taking the first is fine
	// because ejection cost only needs to be a consistent constant.
	for _, ls := range m.adj {
		if len(ls) > 0 {
			return ls[0].RouterEnergy
		}
	}
	return 0
}

// nominalPacket is the packet size (bytes) used to amortize fixed per-hop
// router latency into the paper's per-byte time figure.
const nominalPacket = 1024.0

// timeWeight is the additive per-link latency metric: per-byte serialization
// plus the router pipeline latency amortized over a nominal packet. Using an
// additive metric keeps the reported path time consistent with the
// Dijkstra-optimal time-oriented path. (Wormhole pipelining, which is not
// additive, is modelled by package nocsim and cross-checked in tests.)
func timeWeight(l LinkParams) float64 {
	return l.LatencyPerByte + l.HopLatency/nominalPacket
}

// LinkLatencyPerByte returns the serialization latency of the directed
// link a→b in seconds per byte, and false if the link does not exist.
func (m *Mesh) LinkLatencyPerByte(a, b int) (float64, bool) {
	for _, l := range m.adj[a] {
		if l.to == b {
			return l.LatencyPerByte, true
		}
	}
	return 0, false
}

// PathOf returns the ρ-th candidate path from β to γ. Its slices belong to
// the mesh: callers must not modify them.
func (m *Mesh) PathOf(beta, gamma, rho int) Path { return m.paths[beta][gamma][rho] }

// TimePerByte returns t[β][γ][ρ]: seconds to move one byte from β to γ over
// candidate path ρ. Zero when β == γ.
func (m *Mesh) TimePerByte(beta, gamma, rho int) float64 {
	return m.paths[beta][gamma][rho].Time
}

// EnergyPerByte returns e[β][γ][k][ρ]: joules consumed at node k per byte
// moved from β to γ over candidate path ρ. Zero when β == γ or when k is
// not on the path.
func (m *Mesh) EnergyPerByte(beta, gamma, k, rho int) float64 {
	p := &m.paths[beta][gamma][rho]
	for i, v := range p.Nodes {
		if v == k {
			return p.Energy[i]
		}
	}
	return 0
}

// TimeBounds returns min and max of t[β][γ][ρ] over all β ≠ γ and ρ; the
// paper's average-communication-time estimate uses these. A one-router mesh
// carries no traffic, so its bounds are (0, 0).
func (m *Mesh) TimeBounds() (lo, hi float64) {
	if m.N() == 1 {
		return 0, 0
	}
	lo, hi = math.Inf(1), 0
	for b, row := range m.paths {
		for g, cands := range row {
			if b == g {
				continue
			}
			for _, p := range cands {
				if p.Time < lo {
					lo = p.Time
				}
				if p.Time > hi {
					hi = p.Time
				}
			}
		}
	}
	return lo, hi
}

// MaxEnergyPerByte returns max over β,γ,k,ρ of e[β][γ][k][ρ], the paper's
// e_k^comm parameter used to define the μ index.
func (m *Mesh) MaxEnergyPerByte() float64 {
	var hi float64
	for _, row := range m.paths {
		for _, cands := range row {
			for _, p := range cands {
				for _, e := range p.Energy {
					if e > hi {
						hi = e
					}
				}
			}
		}
	}
	return hi
}

// ScaleEnergy multiplies every communication energy entry by factor; the
// Fig. 2(b) sweep uses this to vary the μ index without rebuilding paths.
func (m *Mesh) ScaleEnergy(factor float64) {
	for _, row := range m.paths {
		for _, cands := range row {
			for _, p := range cands {
				for i := range p.Energy {
					p.Energy[i] *= factor
				}
			}
		}
	}
}
