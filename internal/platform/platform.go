// Package platform models a homogeneous DVFS multicore platform: the set of
// voltage/frequency operating points shared by all processors and the
// static + dynamic power model the paper adopts from Han et al. and
// Abd Ishak et al.
//
// Power at level (v, f):
//
//	P = Ps + Pd
//	Ps = Lg * (v*K1*exp(K2*v)*exp(K3*Vb) + |Vb|*Ib)
//	Pd = Ce * v^2 * f
//
// All times are seconds, energies joules, frequencies hertz and voltages
// volts.
package platform

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"nocdeploy/internal/numeric"
)

// VFLevel is a single voltage/frequency operating point.
type VFLevel struct {
	Voltage float64 // supply voltage in volts
	Freq    float64 // clock frequency in hertz
}

// PowerParams holds the constants of the processor power model.
type PowerParams struct {
	Ce float64 // average switched capacitance (farad)
	Lg float64 // number of logic gates
	K1 float64 // technology constant (ampere)
	K2 float64 // technology constant (1/volt)
	K3 float64 // technology constant (1/volt)
	Vb float64 // body-bias voltage (volt)
	Ib float64 // body junction leakage current (ampere)
}

// DefaultPowerParams returns constants calibrated so that, across the
// default level table, static power is a realistic 10-35% of total power
// and the energy-per-cycle gap index ε is ≈ 2-4, matching the regime the
// paper sweeps in Fig. 2(c).
func DefaultPowerParams() PowerParams {
	return PowerParams{
		Ce: 1.0e-9, // 1 nF effective switched capacitance
		Lg: 2.0e6,
		K1: 2.0e-10,
		K2: 5.0,
		K3: -1.5,
		Vb: -0.7,
		Ib: 1.0e-9,
	}
}

// Static returns the static (leakage) power drawn at supply voltage v.
func (p PowerParams) Static(v float64) float64 {
	return p.Lg * (v*p.K1*math.Exp(p.K2*v)*math.Exp(p.K3*p.Vb) + math.Abs(p.Vb)*p.Ib)
}

// Dynamic returns the dynamic (switching) power at operating point (v, f).
func (p PowerParams) Dynamic(v, f float64) float64 {
	return p.Ce * v * v * f
}

// Power returns total power Ps + Pd at level l.
func (p PowerParams) Power(l VFLevel) float64 {
	return p.Static(l.Voltage) + p.Dynamic(l.Voltage, l.Freq)
}

// Platform is a set of N identical DVFS processors connected by a NoC
// (the NoC itself lives in package noc).
type Platform struct {
	N      int       // number of processors
	Levels []VFLevel // available V/F levels, sorted by ascending frequency
	Params PowerParams

	power []float64 // cached per-level total power
}

// New builds a platform with n processors and the given levels.
// Levels are sorted by ascending frequency.
func New(n int, levels []VFLevel, params PowerParams) (*Platform, error) {
	if n <= 0 {
		return nil, fmt.Errorf("platform: processor count %d must be positive", n)
	}
	if len(levels) == 0 {
		return nil, errors.New("platform: at least one V/F level is required")
	}
	ls := make([]VFLevel, len(levels))
	copy(ls, levels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Freq < ls[j].Freq })
	for i, l := range ls {
		if l.Freq <= 0 || l.Voltage <= 0 {
			return nil, fmt.Errorf("platform: level %d has non-positive voltage or frequency", i)
		}
		if i > 0 && numeric.RelEq(ls[i-1].Freq, l.Freq, numeric.Eps) {
			return nil, fmt.Errorf("platform: duplicate frequency %g Hz", l.Freq)
		}
	}
	p := &Platform{N: n, Levels: ls, Params: params}
	p.power = make([]float64, len(ls))
	for i, l := range ls {
		p.power[i] = params.Power(l)
	}
	return p, nil
}

// DefaultLevels returns the 6-level table used throughout the evaluation
// (0.5-1.0 GHz, near-linear voltage scaling), mirroring L = 6 in the paper.
func DefaultLevels() []VFLevel {
	return []VFLevel{
		{Voltage: 0.85, Freq: 0.50e9},
		{Voltage: 0.90, Freq: 0.60e9},
		{Voltage: 0.95, Freq: 0.70e9},
		{Voltage: 1.00, Freq: 0.80e9},
		{Voltage: 1.05, Freq: 0.90e9},
		{Voltage: 1.10, Freq: 1.00e9},
	}
}

// Default returns a platform with n processors, the default level table and
// default power constants.
func Default(n int) *Platform {
	p, err := New(n, DefaultLevels(), DefaultPowerParams())
	if err != nil {
		panic("platform: default construction failed: " + err.Error()) //lint:allow nopanic — Must-style constructor over known-good constants
	}
	return p
}

// L returns the number of V/F levels.
func (p *Platform) L() int { return len(p.Levels) }

// Power returns the total power at level l.
func (p *Platform) Power(l int) float64 { return p.power[l] }

// ExecTime returns the time to execute cycles worst-case execution cycles
// at level l: C / f_l.
func (p *Platform) ExecTime(cycles float64, l int) float64 {
	return cycles / p.Levels[l].Freq
}

// ExecEnergy returns the energy to execute cycles WCEC at level l:
// (C / f_l) * P_l.
func (p *Platform) ExecEnergy(cycles float64, l int) float64 {
	return p.ExecTime(cycles, l) * p.power[l]
}

// Fmax returns the maximum available frequency.
func (p *Platform) Fmax() float64 { return p.Levels[len(p.Levels)-1].Freq }

// Fmin returns the minimum available frequency.
func (p *Platform) Fmin() float64 { return p.Levels[0].Freq }

// EnergyPerCycle returns P_l / f_l, the energy spent per executed cycle at
// level l.
func (p *Platform) EnergyPerCycle(l int) float64 {
	return p.power[l] / p.Levels[l].Freq
}

// Epsilon returns the paper's ε index: max_l(P_l/f_l) / min_l(P_l/f_l),
// the gap between the most and least energy-hungry cycle.
func (p *Platform) Epsilon() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for l := range p.Levels {
		e := p.EnergyPerCycle(l)
		if e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	return hi / lo
}

// ScaledLevels returns a copy of the default level table whose voltages are
// warped so the resulting ε index is approximately eps. It is used by the
// Fig. 2(c) sweep. gamma > 1 stretches high-frequency voltages upward.
func ScaledLevels(base []VFLevel, gamma float64) []VFLevel {
	out := make([]VFLevel, len(base))
	vmin := base[0].Voltage
	for i, l := range base {
		out[i] = VFLevel{
			Voltage: vmin + (l.Voltage-vmin)*gamma,
			Freq:    l.Freq,
		}
	}
	return out
}
