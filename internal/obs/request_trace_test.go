package obs_test

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"nocdeploy/internal/obs"
)

// TestWithRequestStampsID: request-scoped child traces share the root's
// sequence numbering and sinks but tag every event with their request
// ID, so interleaved requests slice cleanly out of one stream.
func TestWithRequestStampsID(t *testing.T) {
	sink := &collectSink{}
	root := obs.NewWithClock(fakeClock(time.Millisecond), sink)
	a := root.WithRequest("r1")
	b := root.WithRequest("r2")

	a.Emit(obs.Event{Kind: obs.ReqAdmit, Label: "heuristic"})
	b.Emit(obs.Event{Kind: obs.ReqAdmit, Label: "optimal"})
	a.Emit(obs.Event{Kind: obs.SolveStart, Label: "heuristic"})
	root.Emit(obs.Event{Kind: obs.PoolTaskStart, Node: 1})

	if err := a.Close(); err != nil {
		t.Fatalf("child Close: %v", err)
	}
	// Children closed; the root still works.
	b.Emit(obs.Event{Kind: obs.ReqDone, Phase: "ok"})
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}

	wantReq := []string{"r1", "r2", "r1", "", "r2"}
	if len(sink.events) != len(wantReq) {
		t.Fatalf("got %d events, want %d", len(sink.events), len(wantReq))
	}
	for i, e := range sink.events {
		if e.Req != wantReq[i] {
			t.Errorf("event %d: Req = %q, want %q", i, e.Req, wantReq[i])
		}
		if e.Seq != int64(i+1) {
			t.Errorf("event %d: Seq = %d, want shared numbering %d", i, e.Seq, i+1)
		}
	}

	// Re-parenting: a child of a child still reaches the root's sinks.
	grand := a.WithRequest("r3")
	grand.Emit(obs.Event{Kind: obs.ReqDone}) // root closed: sinks gone, must not panic
}

func TestWithRequestNilSafe(t *testing.T) {
	var tr *obs.Trace
	child := tr.WithRequest("r1")
	if child != nil {
		t.Fatal("nil trace produced a non-nil child")
	}
	if child.Enabled() {
		t.Fatal("nil child reports Enabled")
	}
	child.Emit(obs.Event{Kind: obs.ReqDone}) // must not panic
}

func TestRingSinkRetainsAndFilters(t *testing.T) {
	log := obs.NewLog(4)
	tr := obs.NewWithClock(fakeClock(time.Millisecond), log)
	r1 := tr.WithRequest("r1")
	r2 := tr.WithRequest("r2")
	r1.Emit(obs.Event{Kind: obs.ReqAdmit})
	r2.Emit(obs.Event{Kind: obs.ReqAdmit})
	r1.Emit(obs.Event{Kind: obs.ReqStage, Phase: "cache"})
	r1.Emit(obs.Event{Kind: obs.ReqDone, Phase: "ok"})

	if got := log.Stats().Len; got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := len(log.ForRequest("r1")); got != 3 {
		t.Fatalf("r1 slice has %d events, want 3", got)
	}
	if got := log.Stats().Evicted; got != 0 {
		t.Fatalf("Evicted = %d before overflow", got)
	}

	// Overflow evicts oldest-first.
	r2.Emit(obs.Event{Kind: obs.ReqDone, Phase: "ok"})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// A subscription opens at the oldest retained event, so draining one
	// after Close reads back exactly what the log holds.
	sub := log.Subscribe(obs.SubscribeOptions{})
	var ev []obs.Event
	for {
		e, err := sub.Next(context.Background())
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ev = append(ev, e)
	}
	if len(ev) != 4 {
		t.Fatalf("post-overflow Len = %d, want 4", len(ev))
	}
	if ev[0].Kind != obs.ReqAdmit || ev[0].Req != "r2" {
		t.Fatalf("oldest retained event %+v, want r2's admit", ev[0])
	}
	if got := log.Stats().Evicted; got != 1 {
		t.Fatalf("Evicted = %d, want 1", got)
	}
	if got := len(log.ForRequest("r1")); got != 2 {
		t.Fatalf("r1 slice after eviction has %d events, want 2", got)
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq <= ev[i-1].Seq {
			t.Fatalf("log not oldest-first: %v", ev)
		}
	}
}

func TestReadJSONLCorruptAndTruncated(t *testing.T) {
	valid := `{"seq":1,"t":0.001,"kind":"solve.start","req":"r1","label":"heuristic"}` + "\n" +
		`{"seq":2,"t":0.002,"kind":"lp.solve","iters":9}` + "\n"

	t.Run("clean", func(t *testing.T) {
		ev, err := obs.ReadJSONL(strings.NewReader(valid))
		if err != nil || len(ev) != 2 {
			t.Fatalf("ev=%d err=%v", len(ev), err)
		}
		if ev[0].Req != "r1" {
			t.Errorf("req field lost: %+v", ev[0])
		}
	})
	t.Run("blank lines skipped", func(t *testing.T) {
		ev, err := obs.ReadJSONL(strings.NewReader("\n" + valid + "\n\n"))
		if err != nil || len(ev) != 2 {
			t.Fatalf("ev=%d err=%v", len(ev), err)
		}
	})
	t.Run("corrupt middle line", func(t *testing.T) {
		in := `{"seq":1,"kind":"solve.start"}` + "\n" + `{"seq":2,"kind":` + "\n" + `{"seq":3,"kind":"solve.done"}` + "\n"
		ev, err := obs.ReadJSONL(strings.NewReader(in))
		if err == nil {
			t.Fatal("corrupt line accepted")
		}
		if !strings.Contains(err.Error(), "line 2") {
			t.Errorf("error %q does not name line 2", err)
		}
		if len(ev) != 1 || ev[0].Seq != 1 {
			t.Errorf("intact prefix not returned: %v", ev)
		}
	})
	t.Run("truncated final line", func(t *testing.T) {
		in := valid + `{"seq":3,"t":0.003,"kind":"solve.do`
		ev, err := obs.ReadJSONL(strings.NewReader(in))
		if err == nil {
			t.Fatal("truncated final line accepted")
		}
		if !strings.Contains(err.Error(), "line 3") {
			t.Errorf("error %q does not name line 3", err)
		}
		if len(ev) != 2 {
			t.Errorf("intact prefix has %d events, want 2", len(ev))
		}
	})
	t.Run("not json at all", func(t *testing.T) {
		ev, err := obs.ReadJSONL(strings.NewReader("hello world\n"))
		if err == nil || len(ev) != 0 {
			t.Fatalf("ev=%d err=%v", len(ev), err)
		}
	})
}
