package noc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewMeshValidation(t *testing.T) {
	if _, err := NewMesh(Config{W: 0, H: 2, Link: DefaultLinkParams()}); err == nil {
		t.Error("expected error for zero width")
	}
	if _, err := NewMesh(Config{W: 2, H: 2}); err == nil {
		t.Error("expected error for zero link costs")
	}
	if _, err := NewMesh(Config{W: 2, H: 2, Link: DefaultLinkParams(), Jitter: 1.5}); err == nil {
		t.Error("expected error for jitter >= 1")
	}
}

func TestCoordRoundTrip(t *testing.T) {
	m := Default(4, 4)
	for id := 0; id < m.N(); id++ {
		x, y := m.Coord(id)
		if got := m.ID(x, y); got != id {
			t.Errorf("ID(Coord(%d)) = %d", id, got)
		}
	}
}

func TestManhattanDistance(t *testing.T) {
	m := Default(4, 4)
	if d := m.ManhattanDistance(m.ID(0, 0), m.ID(3, 3)); d != 6 {
		t.Errorf("corner-to-corner distance = %d, want 6", d)
	}
	if d := m.ManhattanDistance(5, 5); d != 0 {
		t.Errorf("self distance = %d, want 0", d)
	}
}

// Both candidate paths must be valid walks over mesh links from β to γ.
func TestPathsAreValidWalks(t *testing.T) {
	m := Default(3, 3)
	for b := 0; b < m.N(); b++ {
		for g := 0; g < m.N(); g++ {
			for rho := 0; rho < NumPaths; rho++ {
				p := m.PathOf(b, g, rho)
				if len(p.Nodes) == 0 {
					t.Fatalf("empty path %d→%d ρ=%d", b, g, rho)
				}
				if p.Nodes[0] != b || p.Nodes[len(p.Nodes)-1] != g {
					t.Fatalf("path %d→%d ρ=%d has endpoints %v", b, g, rho, p.Nodes)
				}
				for i := 0; i+1 < len(p.Nodes); i++ {
					if m.ManhattanDistance(p.Nodes[i], p.Nodes[i+1]) != 1 {
						t.Fatalf("path %d→%d ρ=%d: %d and %d not adjacent",
							b, g, rho, p.Nodes[i], p.Nodes[i+1])
					}
				}
			}
		}
	}
}

// A shortest path in either metric never has fewer hops than the Manhattan
// distance, and with modest jitter Dijkstra should not detour arbitrarily.
func TestPathHopsAtLeastManhattan(t *testing.T) {
	m := Default(4, 4)
	for b := 0; b < m.N(); b++ {
		for g := 0; g < m.N(); g++ {
			for rho := 0; rho < NumPaths; rho++ {
				hops := m.PathOf(b, g, rho).Hops()
				if hops < m.ManhattanDistance(b, g) {
					t.Fatalf("path %d→%d ρ=%d: %d hops < Manhattan %d",
						b, g, rho, hops, m.ManhattanDistance(b, g))
				}
			}
		}
	}
}

func TestSameProcessorCommFree(t *testing.T) {
	m := Default(4, 4)
	for k := 0; k < m.N(); k++ {
		for rho := 0; rho < NumPaths; rho++ {
			if m.TimePerByte(k, k, rho) != 0 {
				t.Errorf("t[%d][%d][%d] = %g, want 0", k, k, rho, m.TimePerByte(k, k, rho))
			}
			for j := 0; j < m.N(); j++ {
				if m.EnergyPerByte(k, k, j, rho) != 0 {
					t.Errorf("e[%d][%d][%d][%d] != 0", k, k, j, rho)
				}
			}
		}
	}
}

// totalEnergy is Σ_k e[β][γ][k][ρ], the full path cost per byte, summed
// in router order.
func totalEnergy(m *Mesh, beta, gamma, rho int) float64 {
	var s float64
	for k := 0; k < m.N(); k++ {
		s += m.EnergyPerByte(beta, gamma, k, rho)
	}
	return s
}

// The energy-oriented path must be no worse in total energy than the
// time-oriented path, and vice versa for latency (Dijkstra optimality).
func TestPathOrientationOptimality(t *testing.T) {
	m := Default(4, 4)
	for b := 0; b < m.N(); b++ {
		for g := 0; g < m.N(); g++ {
			if b == g {
				continue
			}
			eE := totalEnergy(m, b, g, PathEnergy)
			eT := totalEnergy(m, b, g, PathTime)
			if eE > eT+1e-18 {
				t.Errorf("%d→%d: energy path costs more energy (%g) than time path (%g)", b, g, eE, eT)
			}
			tE := m.TimePerByte(b, g, PathEnergy)
			tT := m.TimePerByte(b, g, PathTime)
			if tT > tE+1e-15 {
				t.Errorf("%d→%d: time path slower (%g) than energy path (%g)", b, g, tT, tE)
			}
		}
	}
}

// With jitter enabled, at least some pairs must see genuinely different
// candidate paths, otherwise multi-path selection is vacuous.
func TestJitterProducesDistinctPaths(t *testing.T) {
	m := Default(4, 4)
	distinct := 0
	for b := 0; b < m.N(); b++ {
		for g := 0; g < m.N(); g++ {
			if b == g {
				continue
			}
			pe := m.PathOf(b, g, PathEnergy).Nodes
			pt := m.PathOf(b, g, PathTime).Nodes
			if len(pe) != len(pt) {
				distinct++
				continue
			}
			for i := range pe {
				if pe[i] != pt[i] {
					distinct++
					break
				}
			}
		}
	}
	if distinct == 0 {
		t.Error("no pair has distinct energy/time paths; multi-path selection would be vacuous")
	}
}

// Energy attributed across nodes must sum to a positive per-path total, and
// only nodes on the path may be charged.
func TestEnergyChargedOnlyOnPath(t *testing.T) {
	m := Default(3, 3)
	for b := 0; b < m.N(); b++ {
		for g := 0; g < m.N(); g++ {
			if b == g {
				continue
			}
			for rho := 0; rho < NumPaths; rho++ {
				onPath := map[int]bool{}
				for _, v := range m.PathOf(b, g, rho).Nodes {
					onPath[v] = true
				}
				for k := 0; k < m.N(); k++ {
					e := m.EnergyPerByte(b, g, k, rho)
					if e < 0 {
						t.Fatalf("negative energy e[%d][%d][%d][%d]", b, g, k, rho)
					}
					if e > 0 && !onPath[k] {
						t.Fatalf("node %d charged but off path %d→%d ρ=%d", k, b, g, rho)
					}
				}
				if tot := totalEnergy(m, b, g, rho); tot <= 0 {
					t.Fatalf("non-positive total energy for %d→%d ρ=%d", b, g, rho)
				}
			}
		}
	}
}

// Longer Manhattan distance must not cost less energy on the same metric
// (triangle-ish sanity under uniform links).
func TestEnergyGrowsWithDistanceUniform(t *testing.T) {
	m, err := NewMesh(Config{W: 4, H: 4, Link: DefaultLinkParams()}) // no jitter
	if err != nil {
		t.Fatal(err)
	}
	src := m.ID(0, 0)
	prev := 0.0
	for x := 1; x < 4; x++ {
		e := totalEnergy(m, src, m.ID(x, 0), PathEnergy)
		if e <= prev {
			t.Errorf("energy to (%d,0) = %g not greater than previous %g", x, e, prev)
		}
		prev = e
	}
}

func TestTimeBoundsAndScaleEnergy(t *testing.T) {
	m := Default(3, 3)
	lo, hi := m.TimeBounds()
	if !(lo > 0 && hi >= lo) {
		t.Fatalf("TimeBounds = (%g, %g)", lo, hi)
	}
	if hi := m.MaxEnergyPerByte(); hi <= 0 {
		t.Errorf("MaxEnergyPerByte = %g", hi)
	}
	before := totalEnergy(m, 0, 5, PathEnergy)
	m.ScaleEnergy(2.5)
	after := totalEnergy(m, 0, 5, PathEnergy)
	if math.Abs(after-2.5*before)/before > 1e-12 {
		t.Errorf("ScaleEnergy: got %g, want %g", after, 2.5*before)
	}
}

// Property: path symmetry of hop counts — the minimum-hop requirement holds
// for random meshes of random sizes.
func TestPathPropertyRandomMeshes(t *testing.T) {
	f := func(seed int64, wRaw, hRaw uint8) bool {
		w := 2 + int(wRaw%4)
		h := 2 + int(hRaw%4)
		m, err := NewMesh(Config{W: w, H: h, Link: DefaultLinkParams(), Jitter: 0.3, Seed: seed})
		if err != nil {
			return false
		}
		for b := 0; b < m.N(); b++ {
			for g := 0; g < m.N(); g++ {
				for rho := 0; rho < NumPaths; rho++ {
					p := m.PathOf(b, g, rho)
					if p.Nodes[0] != b || p.Nodes[len(p.Nodes)-1] != g {
						return false
					}
					if p.Hops() < m.ManhattanDistance(b, g) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
