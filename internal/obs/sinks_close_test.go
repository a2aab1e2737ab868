package obs

import (
	"io"
	"sync"
	"testing"
)

// TestSinkCloseHygiene pins the lifecycle contract shared by every sink:
// Close is idempotent (second call returns the first call's result, with
// no double side effects) and safe to call concurrently with Write, and
// Write after Close is a discard, never a panic. Writes run from a single
// goroutine — mirroring the Trace mutex that serializes them in
// production — while Close races from another.
func TestSinkCloseHygiene(t *testing.T) {
	cases := []struct {
		name string
		mk   func() Sink
	}{
		{"jsonl", func() Sink { return NewJSONLSink(io.Discard) }},
		{"chrome", func() Sink { return NewChromeSink(io.Discard) }},
		{"progress", func() Sink { return NewProgressSink(io.Discard, 0) }},
		{"metrics", func() Sink { return NewMetricsSink(NewMetrics()) }},
		{"ring", func() Sink { return NewLog(16) }},
		{"broadcast", func() Sink { l := NewLog(16); l.Subscribe(SubscribeOptions{}); return l }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.mk()
			start := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 500; i++ {
					s.Write(Event{Kind: BBIncumbent, Seq: int64(i + 1), Obj: float64(i)})
				}
			}()
			var first, second error
			go func() {
				defer wg.Done()
				<-start
				first = s.Close()
				second = s.Close()
			}()
			close(start)
			wg.Wait()
			if first != second {
				t.Errorf("Close not idempotent: first=%v second=%v", first, second)
			}
			if err := s.Close(); err != first {
				t.Errorf("third Close = %v, want %v", err, first)
			}
			// Post-close writes must be discarded without panicking.
			s.Write(Event{Kind: BBBound, Bound: 1})
		})
	}
}
