package obs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"
)

// collect drains sub until io.EOF, returning everything read.
func collect(t *testing.T, sub *Subscription) []Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var got []Event
	for {
		e, err := sub.Next(ctx)
		if errors.Is(err, io.EOF) {
			return got
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, e)
	}
}

func TestBroadcastFanOut(t *testing.T) {
	l := NewLog(16)
	all := l.Subscribe(SubscribeOptions{})
	only7 := l.Subscribe(SubscribeOptions{Req: "req-7"})
	incOnly := l.Subscribe(SubscribeOptions{Kinds: []Kind{BBIncumbent}})

	if got := l.Stats().Subscribers; got != 3 {
		t.Fatalf("Subscribers = %d, want 3", got)
	}
	l.Write(Event{Kind: BBNode, Req: "req-7", Node: 1})
	l.Write(Event{Kind: BBIncumbent, Req: "req-8", Obj: 5})
	l.Write(Event{Kind: BBIncumbent, Req: "req-7", Obj: 4})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if got := collect(t, all); len(got) != 3 {
		t.Errorf("unfiltered subscriber got %d events, want 3", len(got))
	}
	got7 := collect(t, only7)
	if len(got7) != 2 {
		t.Fatalf("req-filtered subscriber got %d events, want 2", len(got7))
	}
	for _, e := range got7 {
		if e.Req != "req-7" {
			t.Errorf("req filter leaked event for %q", e.Req)
		}
	}
	gotInc := collect(t, incOnly)
	if len(gotInc) != 2 {
		t.Fatalf("kind-filtered subscriber got %d events, want 2", len(gotInc))
	}
	for _, e := range gotInc {
		if e.Kind != BBIncumbent {
			t.Errorf("kind filter leaked %q", e.Kind)
		}
	}
}

// TestBroadcastStalledSubscriberNeverBlocks is the backpressure contract:
// a subscriber that never reads must not delay Write. The writer pushes
// far more events than the log holds from the test goroutine — if any
// Write could block on the stalled subscriber, the test would deadlock
// and time out. Afterwards the drop accounting must be exact and the
// subscriber's first read must be the in-band gap marker.
func TestBroadcastStalledSubscriberNeverBlocks(t *testing.T) {
	const capacity, writes = 8, 1000
	l := NewLog(capacity)
	sub := l.Subscribe(SubscribeOptions{})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < writes; i++ {
			l.Write(Event{Kind: BBNode, Node: i, Seq: int64(i + 1)})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("writer blocked on a stalled subscriber")
	}

	wantDropped := int64(writes - capacity)
	if got := l.Stats().Dropped; got != wantDropped {
		t.Errorf("Stats().Dropped = %d, want %d", got, wantDropped)
	}

	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := collect(t, sub)
	if len(got) != capacity+1 {
		t.Fatalf("drained %d events, want %d (gap marker + retained)", len(got), capacity+1)
	}
	// The subscriber's own drop count is its gap marker's.
	gap := got[0]
	if gap.Kind != StreamGap || int64(gap.Node) != wantDropped {
		t.Fatalf("first read = %+v, want StreamGap with Node=%d", gap, wantDropped)
	}
	// Drop-oldest: the survivors are exactly the newest `capacity`
	// events, in order.
	for i, e := range got[1:] {
		if want := writes - capacity + i; e.Node != want {
			t.Errorf("survivor[%d].Node = %d, want %d", i, e.Node, want)
		}
	}
}

func TestBroadcastGapMarkerPrecedesSurvivors(t *testing.T) {
	l := NewLog(2)
	sub := l.Subscribe(SubscribeOptions{Req: "r"})
	for i := 1; i <= 5; i++ {
		l.Write(Event{Kind: BBNode, Req: "r", Node: i})
	}
	ctx := context.Background()
	e, err := sub.Next(ctx)
	if err != nil || e.Kind != StreamGap || e.Node != 3 || e.Req != "r" || e.Seq != 0 {
		t.Fatalf("first read = %+v, %v; want StreamGap Node=3 Req=r Seq=0", e, err)
	}
	for want := 4; want <= 5; want++ {
		e, err = sub.Next(ctx)
		if err != nil || e.Node != want {
			t.Fatalf("read = %+v, %v; want Node=%d", e, err, want)
		}
	}
	sub.Close()
	if _, err := sub.Next(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("Next after Close = %v, want io.EOF", err)
	}
}

func TestBroadcastSubscriptionClose(t *testing.T) {
	l := NewLog(16)
	sub := l.Subscribe(SubscribeOptions{})
	l.Write(Event{Kind: BBNode, Node: 1})
	sub.Close()
	sub.Close() // idempotent
	if got := l.Stats().Subscribers; got != 0 {
		t.Fatalf("Subscribers after sub.Close = %d, want 0", got)
	}
	// Events written before Close still drain before EOF.
	if got := collect(t, sub); len(got) != 1 || got[0].Node != 1 {
		t.Fatalf("drained %+v, want the one event written before Close", got)
	}
	// Writes after detach are not delivered and not counted.
	l.Write(Event{Kind: BBNode, Node: 2})
	if _, err := sub.Next(context.Background()); !errors.Is(err, io.EOF) {
		t.Fatalf("Next after a post-Close write = %v, want io.EOF", err)
	}
	if got := l.Stats().Dropped; got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
}

func TestBroadcastSubscribeAfterClose(t *testing.T) {
	l := NewLog(16)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	sub := l.Subscribe(SubscribeOptions{})
	if _, err := sub.Next(context.Background()); !errors.Is(err, io.EOF) {
		t.Fatalf("Next on post-close subscription = %v, want io.EOF", err)
	}
}

func TestBroadcastNextContextCancel(t *testing.T) {
	l := NewLog(16)
	sub := l.Subscribe(SubscribeOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := sub.Next(ctx)
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Next = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not observe cancellation")
	}
}

// TestBroadcastConcurrentChurn exercises attach/detach/read racing a
// writer and a late log Close — primarily a race-detector target.
func TestBroadcastConcurrentChurn(t *testing.T) {
	l := NewLog(4)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				l.Write(Event{Kind: BBNode, Node: i})
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sub := l.Subscribe(SubscribeOptions{})
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
				for {
					if _, err := sub.Next(ctx); err != nil {
						break
					}
				}
				cancel()
				sub.Close()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestRingSinkOccupancyExact pins the occupancy accounting the service's
// trace.ring_events and trace.ring_dropped gauges copy out: exact at
// empty, partial, full, and steady-state overflow.
func TestRingSinkOccupancyExact(t *testing.T) {
	const capacity = 4
	l := NewLog(capacity)
	if st := l.Stats(); st.Len != 0 || st.Evicted != 0 {
		t.Fatalf("empty log Len = %d, Evicted = %d, want 0, 0", st.Len, st.Evicted)
	}
	for i := 1; i <= capacity-1; i++ {
		l.Write(Event{Kind: BBNode, Seq: int64(i)})
		if got := l.Stats().Len; got != i {
			t.Fatalf("after %d writes Len = %d, want %d", i, got, i)
		}
	}
	l.Write(Event{Kind: BBNode, Seq: capacity})
	if got := l.Stats().Len; got != capacity {
		t.Fatalf("full log Len = %d, want %d", got, capacity)
	}
	// Overflow: occupancy pins at capacity, evictions count the rest
	// exactly.
	for i := capacity + 1; i <= 3*capacity; i++ {
		l.Write(Event{Kind: BBNode, Seq: int64(i)})
		if got := l.Stats().Len; got != capacity {
			t.Fatalf("after overflow write %d Len = %d, want %d", i, got, capacity)
		}
	}
	if got := l.Stats().Evicted; got != 2*capacity {
		t.Fatalf("Evicted = %d, want %d", got, 2*capacity)
	}
}

// TestRingSinkForRequestAcrossWraparound interleaves two requests through
// several full wraps of the log and checks ForRequest returns exactly
// the retained slice of one request — oldest first, eviction respected,
// no leakage from the other request.
func TestRingSinkForRequestAcrossWraparound(t *testing.T) {
	const capacity, writes = 5, 23
	l := NewLog(capacity)
	req := func(i int) string { return fmt.Sprintf("r%d", i%2) }
	for i := 1; i <= writes; i++ {
		l.Write(Event{Kind: BBNode, Seq: int64(i), Node: i, Req: req(i)})
	}
	// Retained window is the last `capacity` writes.
	first := writes - capacity + 1
	for _, id := range []string{"r0", "r1"} {
		var want []int
		for i := first; i <= writes; i++ {
			if req(i) == id {
				want = append(want, i)
			}
		}
		got := l.ForRequest(id)
		if len(got) != len(want) {
			t.Fatalf("ForRequest(%s) returned %d events, want %d", id, len(got), len(want))
		}
		for j, e := range got {
			if e.Node != want[j] || e.Req != id {
				t.Errorf("ForRequest(%s)[%d] = Node %d Req %s, want Node %d", id, j, e.Node, e.Req, want[j])
			}
			if j > 0 && e.Seq <= got[j-1].Seq {
				t.Errorf("ForRequest(%s) not oldest-first at %d", id, j)
			}
		}
	}
	if got := l.ForRequest("r9"); len(got) != 0 {
		t.Fatalf("unknown request returned %d events", len(got))
	}
	// A request whose events all predate the retained window slices empty.
	l2 := NewLog(2)
	l2.Write(Event{Seq: 1, Req: "old"})
	l2.Write(Event{Seq: 2, Req: "new"})
	l2.Write(Event{Seq: 3, Req: "new"})
	if got := l2.ForRequest("old"); len(got) != 0 {
		t.Fatalf("evicted request still returned %d events", len(got))
	}
}

// TestLogGapAccountingExact checks the drop accounting against a model
// of the log. Each trial runs a small log through randomly interleaved
// writes, subscription opens (up to four, with request and kind
// filters) and non-blocking reads, then closes the log and drains every
// subscription. For each subscription, the delivered seqs must strictly
// increase and be matching writes, and delivered events plus its
// StreamGap counts must equal the matching events it could have read:
// those retained when it opened plus those written since. The gap counts
// summed over subscriptions must equal Stats().Dropped.
func TestLogGapAccountingExact(t *testing.T) {
	reqs := []string{"", "a", "b"}
	kindSets := [][]Kind{nil, {BBNode}, {BBIncumbent, ReqDone}}
	writeKinds := []Kind{BBNode, BBIncumbent, ReqDone}
	matches := func(o SubscribeOptions, e Event) bool {
		return (o.Req == "" || e.Req == o.Req) && (len(o.Kinds) == 0 || slices.Contains(o.Kinds, e.Kind))
	}
	type reader struct {
		sub       *Subscription
		opts      SubscribeOptions
		want, got []int64
		gaps      int
	}
	rng := rand.New(rand.NewPCG(17, 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // Next on a cancelled context is a non-blocking read
	for trial := 0; trial < 400; trial++ {
		capacity := []int{1, 2, 3, 5, 8}[trial%5]
		l := NewLog(capacity)
		var written []Event
		var readers []*reader
		read := func(r *reader) error {
			e, err := r.sub.Next(ctx)
			switch {
			case err != nil:
				return err
			case e.Kind == StreamGap:
				if e.Seq != 0 || e.Req != r.opts.Req || e.Node <= 0 {
					t.Fatalf("trial %d: malformed gap marker %+v", trial, e)
				}
				r.gaps += e.Node
			default:
				r.got = append(r.got, e.Seq)
			}
			return nil
		}
		for step, steps := 0, 10+rng.IntN(60); step < steps; step++ {
			switch op := rng.IntN(10); {
			case op < 5:
				e := Event{Seq: int64(len(written) + 1), Kind: writeKinds[rng.IntN(3)], Req: reqs[1+rng.IntN(2)]}
				written = append(written, e)
				l.Write(e)
				for _, r := range readers {
					if matches(r.opts, e) {
						r.want = append(r.want, e.Seq)
					}
				}
			case op < 6 && len(readers) < 4:
				r := &reader{opts: SubscribeOptions{Req: reqs[rng.IntN(3)], Kinds: kindSets[rng.IntN(3)]}}
				r.sub = l.Subscribe(r.opts)
				for _, e := range written[max(len(written)-capacity, 0):] {
					if matches(r.opts, e) {
						r.want = append(r.want, e.Seq)
					}
				}
				readers = append(readers, r)
			case len(readers) > 0:
				if err := read(readers[rng.IntN(len(readers))]); err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("trial %d: non-blocking Next = %v", trial, err)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var gaps int64
		for i, r := range readers {
			var err error
			for err == nil {
				err = read(r)
			}
			if !errors.Is(err, io.EOF) {
				t.Fatalf("trial %d reader %d: drain ended with %v, want io.EOF", trial, i, err)
			}
			// got must be a strictly increasing subsequence of want.
			j := 0
			for _, s := range r.got {
				for j < len(r.want) && r.want[j] != s {
					j++
				}
				if j == len(r.want) {
					t.Fatalf("trial %d reader %d (%+v): delivered %v, not an ordered subset of matching %v",
						trial, i, r.opts, r.got, r.want)
				}
				j++
			}
			// A request's stream never loses the first req.done it could
			// read: the log keeps it for the subscription when evicted.
			if r.opts.Req != "" {
				first := slices.IndexFunc(r.want, func(seq int64) bool { return written[seq-1].Kind == ReqDone })
				if first >= 0 && !slices.Contains(r.got, r.want[first]) {
					t.Fatalf("trial %d reader %d (%+v): req.done %d not delivered (got %v)",
						trial, i, r.opts, r.want[first], r.got)
				}
			}
			if len(r.got)+r.gaps != len(r.want) {
				t.Fatalf("trial %d reader %d (%+v): %d delivered + %d in gaps, want %d matching",
					trial, i, r.opts, len(r.got), r.gaps, len(r.want))
			}
			gaps += int64(r.gaps)
		}
		if got := l.Stats().Dropped; got != gaps {
			t.Fatalf("trial %d: Stats().Dropped = %d, want the %d in gap markers", trial, got, gaps)
		}
	}
}

// TestLogKeepsEvictedReqDone: a subscription filtered to a request keeps
// that request's req.done when the log evicts it unread, and reads it
// right after the gap marker, so a stream that falls a whole log behind
// still learns that its request finished. An unfiltered subscription
// follows no one request and counts an evicted req.done as a drop.
func TestLogKeepsEvictedReqDone(t *testing.T) {
	l := NewLog(2)
	mine := l.Subscribe(SubscribeOptions{Req: "a"})
	all := l.Subscribe(SubscribeOptions{})
	l.Write(Event{Seq: 1, Kind: BBNode, Req: "a"})
	l.Write(Event{Seq: 2, Kind: ReqDone, Req: "a", Phase: "ok", Dur: 0.5})
	for seq := int64(3); seq <= 6; seq++ {
		l.Write(Event{Seq: seq, Kind: BBNode, Req: "b"})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, mine)
	if len(got) != 2 || got[0].Kind != StreamGap || got[0].Node != 1 ||
		got[1] != (Event{Seq: 2, Kind: ReqDone, Req: "a", Phase: "ok", Dur: 0.5}) {
		t.Fatalf("request subscription read %+v; want a gap of 1, then req.done seq 2", got)
	}
	got = collect(t, all)
	if len(got) != 3 || got[0].Kind != StreamGap || got[0].Node != 4 || got[1].Seq != 5 || got[2].Seq != 6 {
		t.Fatalf("unfiltered subscription read %+v; want a gap of 4, then seqs 5 and 6", got)
	}
	if d := l.Stats().Dropped; d != 5 {
		t.Fatalf("Stats().Dropped = %d, want the 5 in gap markers", d)
	}
}

// TestLogWriteAllocFree: Write allocates nothing, with no subscription,
// with one that lags behind so every write evicts its next event, and
// when an evicted req.done is held for a request subscription.
func TestLogWriteAllocFree(t *testing.T) {
	l := NewLog(4)
	e := Event{Kind: BBNode, Req: "r1", Phase: "p", Node: 3}
	if n := testing.AllocsPerRun(1000, func() { l.Write(e) }); n != 0 {
		t.Errorf("Write with no subscription allocates %v times per call", n)
	}
	sub := l.Subscribe(SubscribeOptions{Req: "r1", Kinds: []Kind{BBNode}})
	defer sub.Close()
	if n := testing.AllocsPerRun(1000, func() { l.Write(e) }); n != 0 {
		t.Errorf("Write with a lagging subscription allocates %v times per call", n)
	}
	if l.Stats().Dropped == 0 {
		t.Fatal("the lagging subscription dropped nothing")
	}
	// Once the log holds only req.done events, each write evicts one that
	// this request subscription holds, and the read hands it back.
	held := l.Subscribe(SubscribeOptions{Req: "r1"})
	defer held.Close()
	done := Event{Kind: ReqDone, Req: "r1", Phase: "ok"}
	var last Event
	if n := testing.AllocsPerRun(1000, func() {
		l.Write(done)
		last, _ = held.Next(context.Background())
	}); n != 0 {
		t.Errorf("Write holding an evicted req.done allocates %v times per call", n)
	}
	if last != done {
		t.Fatalf("last read %+v, want the held req.done", last)
	}
}
