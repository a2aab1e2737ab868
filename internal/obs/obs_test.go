package obs_test

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"nocdeploy/internal/obs"
)

// fakeClock returns a deterministic clock advancing step per call. The
// first call (made by NewWithClock for the trace epoch) returns
// epoch+step, so the first emitted event lands at T = step seconds.
func fakeClock(step time.Duration) func() time.Time {
	t := time.Unix(1_000_000, 0)
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

// collectSink buffers events for assertions.
type collectSink struct{ events []obs.Event }

func (c *collectSink) Write(e obs.Event) { c.events = append(c.events, e) }
func (c *collectSink) Close() error      { return nil }

func TestNilTraceSafe(t *testing.T) {
	var tr *obs.Trace
	if tr.Enabled() {
		t.Error("nil trace reports Enabled")
	}
	tr.Emit(obs.Event{Kind: obs.BBNode, Node: 1}) // must not panic
	if err := tr.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

func TestEmitStampsSeqAndTime(t *testing.T) {
	sink := &collectSink{}
	tr := obs.NewWithClock(fakeClock(10*time.Millisecond), sink)
	if !tr.Enabled() {
		t.Fatal("constructed trace not enabled")
	}
	for i := 0; i < 3; i++ {
		tr.Emit(obs.Event{Kind: obs.BBNode, Node: i})
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sink.events) != 3 {
		t.Fatalf("got %d events, want 3", len(sink.events))
	}
	for i, e := range sink.events {
		if e.Seq != int64(i+1) {
			t.Errorf("event %d: Seq = %d, want %d", i, e.Seq, i+1)
		}
		want := float64(i+1) * 0.01
		if diff := e.T - want; diff < -1e-12 || diff > 1e-12 {
			t.Errorf("event %d: T = %v, want %v", i, e.T, want)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewWithClock(fakeClock(time.Millisecond), obs.NewJSONLSink(&buf))
	emitted := []obs.Event{
		{Kind: obs.SolveStart, Label: "heuristic"},
		{Kind: obs.BBNode, Node: 7, Depth: 2, Bound: -3.25, Worker: 1},
		{Kind: obs.BBIncumbent, Obj: -2.5, Node: 7},
		{Kind: obs.LPSolve, Iters: 12, ItersP1: 4, Phase: "optimal"},
		{Kind: obs.PoolTaskDone, Node: 3, Worker: 2, Dur: 0.125, Phase: "error"},
		{Kind: obs.SolveDone, Label: "heuristic", Obj: -2.5, Phase: "feasible"},
	}
	for _, e := range emitted {
		tr.Emit(e)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(got) != len(emitted) {
		t.Fatalf("round-tripped %d events, want %d", len(got), len(emitted))
	}
	for i, e := range emitted {
		e.Seq = int64(i + 1)
		e.T = float64(i+1) * 0.001
		if got[i] != e {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], e)
		}
	}
}

func TestMetricsSnapshotStableJSON(t *testing.T) {
	m := obs.NewMetrics()
	m.Add("bb.nodes", 41)
	m.Add("lp.solves", 99)
	m.Set("bb.incumbent", -2.5)
	m.SetMax("pool.active_max", 4)
	m.Observe("lp.iters_per_solve", 12)
	m.Observe("lp.iters_per_solve", 30)
	m.Append("bb.gap", 0.5, 0.1)
	m.Append("bb.gap", 1.0, 0.0)

	var a, b bytes.Buffer
	if err := m.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("two snapshots of the same registry differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	var decoded map[string]any
	if err := json.Unmarshal(a.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	for _, key := range []string{"counters", "gauges", "histograms", "series"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("snapshot missing %q section:\n%s", key, a.String())
		}
	}
}

// TestChromeSinkFormat validates the Chrome trace against the trace_event
// JSON-array contract: the file parses as one array, every entry carries
// ph/pid/name, and duration begins and ends pair up.
func TestChromeSinkFormat(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewWithClock(fakeClock(time.Millisecond), obs.NewChromeSink(&buf))
	tr.Emit(obs.Event{Kind: obs.SolveStart, Label: "optimal"})
	tr.Emit(obs.Event{Kind: obs.HeurPhaseStart, Phase: "P1"})
	tr.Emit(obs.Event{Kind: obs.HeurPhaseEnd, Phase: "P1", Dur: 0.001})
	tr.Emit(obs.Event{Kind: obs.BBNode, Node: 1, Depth: 0, Bound: -3.25})
	tr.Emit(obs.Event{Kind: obs.BBIncumbent, Obj: -2.5, Node: 1})
	tr.Emit(obs.Event{Kind: obs.BBBound, Bound: -3.0, Node: 1})
	tr.Emit(obs.Event{Kind: obs.PoolTaskStart, Node: 0, Worker: 1})
	tr.Emit(obs.Event{Kind: obs.PoolTaskDone, Node: 0, Worker: 1, Dur: 0.01})
	tr.Emit(obs.Event{Kind: obs.SolveDone, Label: "optimal", Obj: -2.5, Phase: "feasible"})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var entries []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &entries); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(entries) == 0 {
		t.Fatal("chrome trace is empty")
	}
	begins, ends := 0, 0
	for i, e := range entries {
		for _, key := range []string{"ph", "pid", "name"} {
			if _, ok := e[key]; !ok {
				t.Errorf("entry %d missing %q: %v", i, key, e)
			}
		}
		switch e["ph"] {
		case "B":
			begins++
		case "E":
			ends++
		case "i", "C", "M":
		default:
			t.Errorf("entry %d has unexpected phase %v", i, e["ph"])
		}
	}
	if begins != ends {
		t.Errorf("unbalanced duration events: %d B vs %d E", begins, ends)
	}
}

func TestProgressSinkDeterministic(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewWithClock(fakeClock(time.Second), obs.NewProgressSink(&buf, 500*time.Millisecond))
	tr.Emit(obs.Event{Kind: obs.SolveStart, Label: "optimal"})
	tr.Emit(obs.Event{Kind: obs.BBNode, Node: 1})
	tr.Emit(obs.Event{Kind: obs.BBIncumbent, Obj: 1.5, Node: 1})
	tr.Emit(obs.Event{Kind: obs.BBBound, Bound: 1.0})
	tr.Emit(obs.Event{Kind: obs.BBNode, Node: 2})
	tr.Emit(obs.Event{Kind: obs.SolveDone, Label: "optimal", Obj: 1.5, Phase: "feasible"})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, "progress: ") {
			t.Errorf("line %d lacks progress prefix: %q", i, l)
		}
	}
	for _, want := range []string{"optimal started", "incumbent=1.5", "gap=", "optimal done (feasible)"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
	// Same fake clock, same events — output must be reproducible.
	var buf2 bytes.Buffer
	tr2 := obs.NewWithClock(fakeClock(time.Second), obs.NewProgressSink(&buf2, 500*time.Millisecond))
	for _, e := range []obs.Event{
		{Kind: obs.SolveStart, Label: "optimal"},
		{Kind: obs.BBNode, Node: 1},
		{Kind: obs.BBIncumbent, Obj: 1.5, Node: 1},
		{Kind: obs.BBBound, Bound: 1.0},
		{Kind: obs.BBNode, Node: 2},
		{Kind: obs.SolveDone, Label: "optimal", Obj: 1.5, Phase: "feasible"},
	} {
		tr2.Emit(e)
	}
	if err := tr2.Close(); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Errorf("progress output not deterministic:\n%s\nvs\n%s", out, buf2.String())
	}
}

// nilTraceSink keeps WithRequest's result alive in the allocation check.
var nilTraceSink *obs.Trace

// TestDisabledTraceAllocFree is the disabled-tracing guarantee as a
// tier-1 test: emitting into a nil trace, and taking a request view of
// one, allocate nothing, so an untraced solve pays only nil checks.
func TestDisabledTraceAllocFree(t *testing.T) {
	var tr *obs.Trace
	if n := testing.AllocsPerRun(1000, func() { tr.Emit(obs.Event{Kind: obs.BBNode, Node: 7, Bound: -3.25}) }); n > 0 {
		t.Errorf("nil Trace.Emit allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() { nilTraceSink = tr.WithRequest("req-1") }); n > 0 {
		t.Errorf("nil Trace.WithRequest allocates %v times per call", n)
	}
}

// BenchmarkEmitNil measures the disabled-tracer cost paid by every
// emission site: one nil receiver test. This is the overhead tracing adds
// to an untraced solve.
func BenchmarkEmitNil(b *testing.B) {
	var tr *obs.Trace
	for i := 0; i < b.N; i++ {
		if tr.Enabled() {
			tr.Emit(obs.Event{Kind: obs.BBNode, Node: i})
		}
	}
}

// BenchmarkEmitJSONL measures the enabled cost of one event through the
// mutex, the encoder and a discarded destination.
func BenchmarkEmitJSONL(b *testing.B) {
	tr := obs.New(obs.NewJSONLSink(io.Discard))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(obs.Event{Kind: obs.BBNode, Node: i, Depth: 3, Bound: -1.5})
	}
	b.StopTimer()
	if err := tr.Close(); err != nil {
		b.Fatal(err)
	}
}
