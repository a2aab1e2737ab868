// Live solve streaming: Server-Sent Events over the request-tagged trace
// stream.
//
// GET /v1/requests/{id}/events and GET /v1/jobs/{id}/events attach an SSE
// client to one request's solve as it runs. The handler reads one
// subscription on the service's event log (obs.Log), filtered to the
// request and to ?kinds=. The subscription opens at the oldest retained
// event, so the stream first replays what the log still holds — a late
// joiner sees the incumbents it missed — and then follows the solve live.
// The log never waits for a reader, so a stalled client can never block
// the solver; events evicted before the client read them surface in-band
// as one stream.gap event ahead of the events that survived. Idle streams
// carry comment heartbeats so intermediaries keep the connection open.
// The stream ends with a solve.done terminal event (Label "request")
// carrying the request's outcome.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"nocdeploy/internal/obs"
)

// handleRequestEvents streams one request's events by request ID (the
// X-Request-ID of any earlier response). An unknown or long-evicted ID
// yields an open stream of heartbeats — SSE clients may legitimately
// attach before the request arrives.
func (s *Service) handleRequestEvents(w http.ResponseWriter, r *http.Request) {
	s.met.Add("http.requests", 1)
	s.streamEvents(w, r, r.PathValue("id"), nil)
}

// handleJobEvents streams the solve behind an async job. Unlike the
// request route, an unknown job is a hard 404, and a job that already
// finished gets its retained events and then its terminal event at once,
// synthesized from the job record if the log no longer holds req.done.
func (s *Service) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	s.met.Add("http.requests", 1)
	job, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	s.streamEvents(w, r, job.Request, &job)
}

// parseKinds reads the ?kinds= filter (comma-separated event kinds).
// req.done is always included when a filter is present: without it the
// stream could never observe its own termination.
func parseKinds(r *http.Request) []obs.Kind {
	var kinds []obs.Kind
	for _, k := range strings.Split(r.URL.Query().Get("kinds"), ",") {
		if k = strings.TrimSpace(k); k != "" {
			kinds = append(kinds, obs.Kind(k))
		}
	}
	if len(kinds) > 0 && !slices.Contains(kinds, obs.ReqDone) {
		kinds = append(kinds, obs.ReqDone)
	}
	return kinds
}

// writeSSE emits one event as an SSE message: the trace sequence number
// as the message id (when the event has one — synthesized stream.gap and
// terminal events do not), the event kind as the message type, the JSON
// encoding as the data line.
func writeSSE(w io.Writer, e obs.Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if e.Seq > 0 {
		if _, err := fmt.Fprintf(w, "id: %d\n", e.Seq); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Kind, data)
	return err
}

// jobOutcome folds a terminal job record into the outcome label of its
// synthesized terminal event.
func jobOutcome(j *Job) string {
	switch {
	case j.Status == JobFailed:
		return OutcomeError
	case j.Result != nil && j.Result.Cancelled:
		return OutcomeCancelled
	default:
		return OutcomeOK
	}
}

// streamEvents is the shared SSE loop. job, when non-nil, is a snapshot
// of the async job record taken by the caller. A job turns terminal only
// after its req.done is written, so a stream on a finished job has
// nothing left to wait for: it reads the log without idling, and if the
// req.done was evicted before the stream subscribed, the job record
// supplies the terminal event. The record is read again whenever the
// stream idles a heartbeat long, because the job may have finished
// between the caller's snapshot and the subscription.
func (s *Service) streamEvents(w http.ResponseWriter, r *http.Request, reqID string, job *Job) {
	if s.events == nil {
		s.writeError(w, http.StatusNotFound, errTracingDisabled)
		return
	}
	rc := http.NewResponseController(w)
	sub := s.events.Subscribe(obs.SubscribeOptions{Req: reqID, Kinds: parseKinds(r)})
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	s.met.Add(obs.Key("http.status", "code", "200"), 1)
	w.WriteHeader(http.StatusOK)

	terminal := func(outcome string, dur, t float64) {
		_ = writeSSE(w, obs.Event{
			Kind:  obs.SolveDone,
			Label: "request",
			Phase: outcome,
			Req:   reqID,
			T:     t,
			Dur:   dur,
		})
		_ = rc.Flush()
	}

	// A reconnecting client (deployctl watch retries dropped streams)
	// sends the standard Last-Event-ID header with the last trace
	// sequence number it saw; events at or before it are not sent again,
	// so reconnects resume instead of re-playing.
	var resume int64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			resume = n
		}
	}

	wait := s.cfg.Heartbeat
	if job != nil && job.terminal() {
		wait = 0
	}
	for {
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		e, err := sub.Next(ctx)
		cancel()
		if err != nil {
			if r.Context().Err() != nil || !errors.Is(err, context.DeadlineExceeded) {
				// The client went away, or the service is shutting down
				// (io.EOF): the stream ends without a terminal event, and
				// the client may reconnect.
				return
			}
			if wait == 0 {
				// Caught up on a finished job without meeting its
				// req.done, which the log has evicted.
				terminal(jobOutcome(job), 0, 0)
				return
			}
			if job != nil {
				if j, ok := s.jobs.get(job.ID); ok && j.terminal() {
					job, wait = &j, 0
					continue
				}
			}
			if _, err := io.WriteString(w, ": hb\n\n"); err != nil {
				return
			}
			_ = rc.Flush()
			continue
		}
		if e.Kind == obs.StreamGap || e.Seq > resume {
			if err := writeSSE(w, e); err != nil {
				return
			}
			_ = rc.Flush()
		}
		if e.Kind == obs.ReqDone {
			terminal(e.Phase, e.Dur, e.T)
			return
		}
	}
}
