package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
)

// histBounds is the shared decade ladder of every histogram: wide enough
// for sub-microsecond task times and 10⁵-iteration simplex solves alike,
// coarse enough that snapshots stay small. Values land in the first bucket
// whose upper bound is ≥ the observation; larger values go to +Inf.
var histBounds = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1,
	1, 10, 100, 1e3, 1e4, 1e5, 1e6,
}

// hist is one histogram's state.
type hist struct {
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets []int64 // len(histBounds)+1, last is the overflow bucket
}

// Metrics is a small counter/gauge/histogram/series registry. All methods
// are safe for concurrent use and nil-safe (a nil *Metrics discards
// updates), mirroring the nil-Trace convention. Each time series holds
// at most SeriesCap points (see Decimated), so a registry that outlives
// many solves stays bounded.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*hist
	series   map[string]*Decimated[Point]
}

// Point is one sample of a time series: T seconds since the trace epoch.
type Point struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// SeriesCap is the default bound on a decimated series: the points of a
// Metrics time series and of an archived incumbent trajectory.
const SeriesCap = 512

// Decimated is a sample sequence bounded by stride-doubling decimation:
// it keeps every stride-th sample offered, and when keeping one more
// would pass its cap it drops every other kept sample and doubles the
// stride. The first sample always survives, and a long series keeps its
// shape, not every sample. The zero value is an empty series.
type Decimated[T any] struct {
	points []T
	stride int // keep every stride-th offered sample; 0 reads as 1
	seen   int // samples offered so far
}

// Add offers one sample; limit (> 0) caps the samples kept.
func (d *Decimated[T]) Add(p T, limit int) {
	if d.stride == 0 {
		d.stride = 1
	}
	d.seen++
	if (d.seen-1)%d.stride != 0 {
		return
	}
	if len(d.points) >= limit {
		kept := d.points[:0]
		for i := 0; i < len(d.points); i += 2 {
			kept = append(kept, d.points[i])
		}
		d.points = kept
		d.stride *= 2
	}
	d.points = append(d.points, p)
}

// Points returns the kept samples, oldest first. The slice shares the
// series' storage.
func (d *Decimated[T]) Points() []T { return d.points }

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		hists:    map[string]*hist{},
		series:   map[string]*Decimated[Point]{},
	}
}

// Add increments counter name by delta.
func (m *Metrics) Add(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Set records gauge name's latest value.
func (m *Metrics) Set(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}

// SetMax records gauge name's running maximum.
func (m *Metrics) SetMax(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if cur, ok := m.gauges[name]; !ok || v > cur {
		m.gauges[name] = v
	}
	m.mu.Unlock()
}

// Observe adds one sample to histogram name.
func (m *Metrics) Observe(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h := m.hists[name]
	if h == nil {
		h = &hist{min: math.Inf(1), max: math.Inf(-1), buckets: make([]int64, len(histBounds)+1)}
		m.hists[name] = h
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	b := len(histBounds)
	for i, ub := range histBounds {
		if v <= ub {
			b = i
			break
		}
	}
	h.buckets[b]++
	m.mu.Unlock()
}

// Append adds one point to time series name, decimating it past
// SeriesCap points.
func (m *Metrics) Append(name string, t, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	d := m.series[name]
	if d == nil {
		d = &Decimated[Point]{}
		m.series[name] = d
	}
	d.Add(Point{T: t, V: v}, SeriesCap)
	m.mu.Unlock()
}

// HistSnapshot is the frozen view of one histogram. Bounds are the shared
// bucket upper bounds; Buckets has one extra overflow cell.
type HistSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts
// by linear interpolation inside the bucket holding the target rank, the
// standard Prometheus-style histogram_quantile estimate. Exact at bucket
// boundaries: when the target rank lands on a bucket's cumulative count,
// the bucket's upper bound is returned. The recorded Min/Max tighten the
// outermost buckets when finite (a windowed delta from Sub has neither).
// An empty histogram returns NaN.
func (h HistSnapshot) Quantile(q float64) float64 {
	if h.Count <= 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.Count)
	cum := int64(0)
	for i, n := range h.Buckets {
		if n == 0 {
			cum += n
			continue
		}
		prev := cum
		cum += n
		if target > float64(cum) {
			continue
		}
		// The rank lands in this bucket: interpolate between its edges.
		lower, upper := bucketEdges(h, i)
		frac := (target - float64(prev)) / float64(n)
		if frac < 0 {
			frac = 0
		}
		v := lower + (upper-lower)*frac
		return clampToObserved(h, v)
	}
	// Only reachable when every bucket is empty but Count > 0 (corrupt
	// snapshot); fall back to the recorded extremes.
	return clampToObserved(h, h.Max)
}

// bucketEdges returns bucket i's value range. The first bucket extends
// down to Min (when finite) or zero; the overflow bucket extends up to
// Max (when finite) or the last bound.
func bucketEdges(h HistSnapshot, i int) (lower, upper float64) {
	switch {
	case i == 0:
		lower = 0
		if !math.IsInf(h.Min, 0) && h.Min < h.Bounds[0] {
			lower = h.Min
		}
	case i <= len(h.Bounds):
		lower = h.Bounds[i-1]
	}
	if i < len(h.Bounds) {
		upper = h.Bounds[i]
	} else {
		upper = h.Bounds[len(h.Bounds)-1]
		if !math.IsInf(h.Max, 0) && h.Max > upper {
			upper = h.Max
		}
	}
	return lower, upper
}

// clampToObserved bounds an estimate by the recorded extremes, when
// known.
func clampToObserved(h HistSnapshot, v float64) float64 {
	if !math.IsInf(h.Min, 0) && v < h.Min {
		v = h.Min
	}
	if !math.IsInf(h.Max, 0) && v > h.Max {
		v = h.Max
	}
	return v
}

// Sub returns the histogram of observations made after prev was taken —
// the per-window view a poller needs for live quantiles. Min/Max are
// unknown for the window and come back infinite. Snapshots with
// different bucket ladders (or an empty prev) return h unchanged.
func (h HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	if prev.Count == 0 || len(prev.Buckets) != len(h.Buckets) {
		return h
	}
	d := HistSnapshot{
		Count:   h.Count - prev.Count,
		Sum:     h.Sum - prev.Sum,
		Min:     math.Inf(1),
		Max:     math.Inf(-1),
		Bounds:  h.Bounds,
		Buckets: make([]int64, len(h.Buckets)),
	}
	if d.Count < 0 { // counter reset (e.g. daemon restart): window unknowable
		return h
	}
	for i := range h.Buckets {
		if n := h.Buckets[i] - prev.Buckets[i]; n > 0 {
			d.Buckets[i] = n
		}
	}
	return d
}

// DeltaFrom returns the registry change from prev to s: counters and
// histograms subtract (clamped at zero on resets), gauges and series
// keep s's current values. This is what a metrics poller shows per
// refresh interval.
func (s Snapshot) DeltaFrom(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters: map[string]int64{},
		Gauges:   s.Gauges,
		Hists:    map[string]HistSnapshot{},
		Series:   s.Series,
	}
	for k, v := range s.Counters {
		dv := v - prev.Counters[k]
		if dv < 0 {
			dv = v
		}
		d.Counters[k] = dv
	}
	for k, h := range s.Hists {
		d.Hists[k] = h.Sub(prev.Hists[k])
	}
	return d
}

// Snapshot is a frozen, JSON-stable view of the registry: encoding/json
// sorts map keys, so two snapshots of the same state marshal identically.
type Snapshot struct {
	Counters map[string]int64        `json:"counters"`
	Gauges   map[string]float64      `json:"gauges"`
	Hists    map[string]HistSnapshot `json:"histograms"`
	Series   map[string][]Point      `json:"series"`
}

// Snapshot copies the current state. Nil-safe: a nil registry snapshots
// empty.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]float64{},
		Hists:    map[string]HistSnapshot{},
		Series:   map[string][]Point{},
	}
	if m == nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.counters {
		s.Counters[k] = v
	}
	for k, v := range m.gauges {
		s.Gauges[k] = v
	}
	for k, h := range m.hists {
		s.Hists[k] = HistSnapshot{
			Count:   h.count,
			Sum:     h.sum,
			Min:     h.min,
			Max:     h.max,
			Bounds:  histBounds,
			Buckets: append([]int64(nil), h.buckets...),
		}
	}
	for k, d := range m.series {
		s.Series[k] = append([]Point(nil), d.Points()...)
	}
	return s
}

// WriteJSON writes the current snapshot as indented JSON.
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.Snapshot())
}
