package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// JSONLSink writes one JSON object per event, newline-delimited — the
// archival trace format. Every line round-trips through encoding/json back
// into an Event. Output is buffered; Close flushes and, when the
// destination is an io.Closer, closes it. Close is idempotent (it
// remembers its first result) and safe concurrent with Write: a write
// racing the close is either flushed or cleanly discarded, never torn.
type JSONLSink struct {
	mu     sync.Mutex
	w      io.Writer
	buf    *bufio.Writer
	enc    *json.Encoder
	err    error // first write error, surfaced by Close
	closed bool
}

// NewJSONLSink wraps w. The caller keeps ownership of w unless it
// implements io.Closer, in which case Close closes it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	buf := bufio.NewWriter(w)
	return &JSONLSink{w: w, buf: buf, enc: json.NewEncoder(buf)}
}

// Write encodes e as one line. Errors are sticky and reported by Close so
// emission sites stay error-free. Writes after Close are discarded.
func (s *JSONLSink) Write(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.closed {
		return
	}
	s.err = s.enc.Encode(e)
}

// Close flushes the buffer and closes the destination if it is closable.
// Subsequent calls return the first call's result without re-closing the
// destination.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	flushErr := s.buf.Flush()
	if s.err == nil {
		s.err = flushErr
	}
	if c, ok := s.w.(io.Closer); ok {
		if err := c.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// ScanJSONL decodes a JSONL trace one event at a time, calling fn for
// each — the streaming inverse of JSONLSink, for consumers (trace-slice
// validation in deployctl) that must not materialize an O(file) slice.
// Decoding is line-oriented: blank lines are skipped, and a line that is
// not a valid event object (corrupt, or a final line truncated by a
// crashed writer) stops the scan with an error naming its 1-based line
// number; every event before the bad line has already been delivered, so
// a torn trace yields its intact prefix. A non-nil error from fn stops
// the scan and is returned verbatim.
func ScanJSONL(r io.Reader, fn func(Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("obs: jsonl line %d: %w", lineNo, err)
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: jsonl line %d: %w", lineNo+1, err)
	}
	return nil
}

// ReadJSONL decodes a whole JSONL trace back into events — ScanJSONL
// materialized, used by tests and analysis tooling that want the slice.
// A decode error still returns every event before the bad line.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	err := ScanJSONL(r, func(e Event) error {
		out = append(out, e)
		return nil
	})
	return out, err
}
