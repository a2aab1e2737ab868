package obs

import (
	"context"
	"io"
	"slices"
	"sync"
)

// Log is a bounded in-memory event log: the deployment service's one
// record of recent events. It retains the last capacity events, which
// ForRequest slices for the per-request trace endpoint and the flight
// recorder, and live streams read the same buffer through Subscriptions —
// cursors into it. A subscription opens at the oldest retained event, so
// replaying what a late joiner missed is just reading from an older
// cursor.
//
// Write runs under the owning Trace's mutex, on the solver's critical
// path, so it never waits for a reader and allocates nothing. When the
// log is full the oldest event is overwritten; a subscription whose
// cursor still points at it is moved on, and if the event matched the
// subscription's filters it is counted toward the subscription's next
// StreamGap marker. A reader therefore learns exactly how many of its
// events it missed, and a stalled reader costs the writer nothing. The
// one exception is a request's ReqDone: a subscription filtered to that
// request keeps it when it is evicted, so a stream that was open when
// its request finished always learns that it did.
type Log struct {
	mu      sync.Mutex
	buf     []Event
	next    int64 // events written so far; the next goes to buf[next%len(buf)]
	subs    []*Subscription
	dropped int64 // matching events evicted before their subscription read them
	closed  bool
}

// NewLog returns a log retaining at most capacity events (at least one).
func NewLog(capacity int) *Log {
	return &Log{buf: make([]Event, max(capacity, 1))}
}

// oldest is the position of the oldest retained event, which is also how
// many events have been evicted. Callers hold mu.
func (l *Log) oldest() int64 { return max(l.next-int64(len(l.buf)), 0) }

// at returns the event at position pos, which must be retained. Callers
// hold mu.
func (l *Log) at(pos int64) *Event { return &l.buf[pos%int64(len(l.buf))] }

// Write appends e, evicting the oldest event when the log is full, and
// wakes the subscriptions e matches. A no-op after Close.
func (l *Log) Write(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	evicted := l.next - int64(len(l.buf)) // negative until the log is full
	for _, sub := range l.subs {
		if sub.pos == evicted {
			sub.pos++
			if old := l.at(evicted); sub.match(old) {
				if old.Kind == ReqDone && sub.req != "" && !sub.held {
					sub.done, sub.held = *old, true
				} else {
					sub.gap++
					l.dropped++
				}
			}
		}
		if sub.match(&e) {
			sub.wake()
		}
	}
	*l.at(l.next) = e
	l.next++
}

// Close stops the log: later writes are discarded, and each
// subscription's Next returns io.EOF once it has read what remains. The
// retained events stay readable. Idempotent and safe concurrent with
// Write.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	for _, sub := range l.subs {
		sub.wake()
	}
	return nil
}

// ForRequest returns the retained events carrying request ID id, oldest
// first — the per-request trace slice. Empty when the request emitted
// nothing or its events have already been evicted.
func (l *Log) ForRequest(id string) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for pos := l.oldest(); pos < l.next; pos++ {
		if e := l.at(pos); e.Req == id {
			out = append(out, *e)
		}
	}
	return out
}

// LogStats is a point-in-time view of a Log's accounting.
type LogStats struct {
	Len         int   // events retained (the trace.ring_events gauge)
	Evicted     int64 // events overwritten since construction (trace.ring_dropped)
	Subscribers int   // attached subscriptions (stream.subscribers)
	// Dropped counts matching events evicted before their subscription
	// read them, over every subscription ever attached (stream.dropped):
	// the sum of the Node counts of all StreamGap markers, delivered or
	// pending.
	Dropped int64
}

// Stats reports the log's occupancy and drop accounting.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LogStats{
		Len:         int(l.next - l.oldest()),
		Evicted:     l.oldest(),
		Subscribers: len(l.subs),
		Dropped:     l.dropped,
	}
}

// SubscribeOptions filter one subscription.
type SubscribeOptions struct {
	// Req, when non-empty, delivers only events carrying this request ID.
	Req string
	// Kinds, when non-empty, delivers only these event kinds.
	Kinds []Kind
}

// Subscribe opens a subscription at the oldest retained event: its first
// reads replay what the log still holds, then it follows new writes. On
// a closed log it reads the retained events, then io.EOF.
func (l *Log) Subscribe(opts SubscribeOptions) *Subscription {
	sub := &Subscription{
		log:    l,
		req:    opts.Req,
		kinds:  slices.Clone(opts.Kinds),
		notify: make(chan struct{}, 1),
	}
	l.mu.Lock()
	sub.pos = l.oldest()
	l.subs = append(l.subs, sub)
	l.mu.Unlock()
	return sub
}

// Subscription is one reader's cursor into a Log, with its request and
// kind filters. Read by exactly one goroutine via Next.
type Subscription struct {
	log    *Log
	req    string
	kinds  []Kind
	notify chan struct{} // capacity 1: "a matching event may be waiting"

	// Guarded by log.mu.
	pos    int64 // position of the next event to read
	end    int64 // write position at Close: the read limit once closed
	gap    int   // matching events evicted since the last StreamGap marker
	done   Event // the request's ReqDone, evicted before it was read
	held   bool  // done is waiting to be read
	closed bool
}

func (sub *Subscription) match(e *Event) bool {
	return (sub.req == "" || e.Req == sub.req) &&
		(len(sub.kinds) == 0 || slices.Contains(sub.kinds, e.Kind))
}

func (sub *Subscription) wake() {
	select {
	case sub.notify <- struct{}{}:
	default:
	}
}

// Next returns the next matching event, blocking until one is written.
// When matching events were evicted before this reader got to them, the
// next return is a synthesized StreamGap marker (Node = how many) ahead
// of the events that survived, and a held ReqDone follows the marker.
// Returns io.EOF once the log or the subscription is closed and the
// remaining events are read, or ctx.Err() when ctx ends first; with an
// already-expired ctx, Next is a non-blocking read.
func (sub *Subscription) Next(ctx context.Context) (Event, error) {
	l := sub.log
	for {
		l.mu.Lock()
		if sub.gap > 0 {
			gap := Event{Kind: StreamGap, Req: sub.req, Node: sub.gap}
			sub.gap = 0
			l.mu.Unlock()
			return gap, nil
		}
		if sub.held {
			done := sub.done
			sub.held = false
			l.mu.Unlock()
			return done, nil
		}
		end := l.next
		if sub.closed {
			// A detached cursor is no longer moved on by Write: skip what
			// was evicted since, and stop at the events written before
			// Close.
			sub.pos = max(sub.pos, l.oldest())
			end = sub.end
		}
		for ; sub.pos < end; sub.pos++ {
			if e := l.at(sub.pos); sub.match(e) {
				ev := *e
				sub.pos++
				l.mu.Unlock()
				return ev, nil
			}
		}
		done := l.closed || sub.closed
		l.mu.Unlock()
		if done {
			return Event{}, io.EOF
		}
		select {
		case <-ctx.Done():
			return Event{}, ctx.Err()
		case <-sub.notify:
		}
	}
}

// Close detaches the subscription and wakes a blocked Next, which then
// returns the events written before Close that are still retained, then
// io.EOF. Idempotent.
func (sub *Subscription) Close() {
	l := sub.log
	l.mu.Lock()
	if !sub.closed {
		sub.closed = true
		sub.end = l.next
		l.subs = slices.DeleteFunc(l.subs, func(s *Subscription) bool { return s == sub })
	}
	l.mu.Unlock()
	sub.wake()
}
