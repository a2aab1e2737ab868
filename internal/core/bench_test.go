package core

import "testing"

// Sinks keep the benchmarked evaluation from being optimized away.
var (
	evalSink    float64
	evalErrSink error
)

// BenchmarkEvaluate times one candidate evaluation as the local searches
// and the portfolio operators run it: Reschedule, CheckConstraints and
// ComputeMetrics of the repaired deployment of a 4×4, M = 20 instance.
func BenchmarkEvaluate(b *testing.B) {
	s := mediumSystem(b, 20, 1)
	d, _, err := HeuristicWithRepair(s, Options{}, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	order := ScheduleOrder(s, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mk := Reschedule(s, d, order)
		evalErrSink = CheckConstraints(s, d)
		m, err := ComputeMetrics(s, d)
		if err != nil {
			b.Fatal(err)
		}
		evalSink = mk + m.MaxEnergy
	}
}
