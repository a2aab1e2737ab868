package noc

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// TestMeshPinned pins the bits of every public Mesh query: a rewrite of the
// route storage must reproduce them exactly, because the solvers' tie-breaks
// and the figure tables depend on them.
func TestMeshPinned(t *testing.T) {
	want := map[string]string{
		"2x2/seed1":        "e8a8fd640d04453c",
		"2x2/seed1/scaled": "2ebb0ae4f68bd7a5",
		"2x2/seed2":        "0c4e1c7ad24940e5",
		"2x2/seed2/scaled": "3fb1a239ce816c58",
		"3x5/seed1":        "da3ce101f806a122",
		"3x5/seed1/scaled": "1c4a51c2efa4d9fd",
		"3x5/seed2":        "d6593f236baa81b4",
		"3x5/seed2/scaled": "0d205d433b491634",
		"4x4/seed1":        "2d81d6cfb6dde48b",
		"4x4/seed1/scaled": "2848ae41882ed752",
		"4x4/seed2":        "8dacad9d0aa554b3",
		"4x4/seed2/scaled": "334f9a120852fe48",
	}
	for _, dims := range [][2]int{{2, 2}, {3, 5}, {4, 4}} {
		for _, seed := range []int64{1, 2} {
			m, err := NewMesh(Config{W: dims[0], H: dims[1], Link: DefaultLinkParams(), Jitter: 0.25, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%dx%d/seed%d", dims[0], dims[1], seed)
			for _, scaled := range []bool{false, true} {
				key := name
				if scaled {
					m.ScaleEnergy(3.5)
					key += "/scaled"
				}
				if got := meshDigest(m); got != want[key] {
					t.Errorf("%s: digest %s, want %s", key, got, want[key])
				}
			}
		}
	}
}

// meshDigest is the FNV-1a hash of the bits of every public query on m.
func meshDigest(m *Mesh) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	n := m.N()
	for b := 0; b < n; b++ {
		for g := 0; g < n; g++ {
			for rho := 0; rho < NumPaths; rho++ {
				nodes := m.PathOf(b, g, rho).Nodes
				put(uint64(len(nodes)))
				for _, v := range nodes {
					put(uint64(v))
				}
				putF(m.TimePerByte(b, g, rho))
				for k := 0; k < n; k++ {
					putF(m.EnergyPerByte(b, g, k, rho))
				}
			}
		}
	}
	putF(m.MaxEnergyPerByte())
	lo, hi := m.TimeBounds()
	putF(lo)
	putF(hi)
	return fmt.Sprintf("%016x", h.Sum64())
}
