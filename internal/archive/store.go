package archive

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nocdeploy/internal/obs"
)

// Options configures a Store. Records persist as segmented JSONL under
// Dir; only their compact Summaries stay resident.
type Options struct {
	// Dir is the segment directory, created if missing; required.
	Dir string

	// MaxSegmentBytes seals the active segment once it grows past this
	// size; 0 means 4 MiB. Retention works at segment granularity, so
	// smaller segments bound disk usage more tightly.
	MaxSegmentBytes int64
	// MaxBytes bounds total on-disk size: once exceeded, whole oldest
	// sealed segments are deleted. 0 means 256 MiB; negative disables.
	MaxBytes int64
	// MaxAge expires records: List and Get hide records older than
	// now − MaxAge, and a sealed segment is deleted once its newest
	// record is that old. 0 disables.
	MaxAge time.Duration

	// QueueDepth bounds the async writer's queue; 0 means 256. Append
	// never blocks: when the queue is full the record is counted as
	// dropped instead — mirroring the event log's backpressure
	// contract (obs.Log), a slow disk can never delay a solve.
	QueueDepth int

	// Clock stamps Record.Time for records appended without one and
	// dates the MaxAge cutoff; nil means the wall clock. Queries and the
	// writer read it concurrently when MaxAge is set. Tests inject a fake
	// clock, under which the archived bytes are a pure function of the
	// appended content.
	Clock obs.Clock
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 4 << 20
	}
	if o.MaxBytes == 0 {
		o.MaxBytes = 256 << 20
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	return o
}

// segInfo is the writer's accounting for one sealed segment.
type segInfo struct {
	ord    int64 // segment ordinal; the file is seg-<ord>.jsonl
	bytes  int64
	newest time.Time // newest record time in the segment
}

// Store is the solve archive. Open creates one; Append is safe from any
// goroutine and never blocks (see Options.QueueDepth); queries (List,
// Get, Stats) are safe concurrent with appends; Close drains the writer
// queue so every accepted record is durable on return.
type Store struct {
	opts Options
	dir  string

	mu      sync.Mutex
	closed  bool
	seq     int64
	index   []Summary          // append-ordered (chronological)
	byID    map[string]int     // record ID → index position
	pending map[string]*Record // accepted, not yet durable

	ch   chan *Record
	done chan struct{} // closed when the writer exits
	gate chan struct{} // test hook: writer blocks per record when non-nil

	// Writer-owned segment state (single goroutine; no locking).
	active      *os.File
	activeN     int64
	activeNew   time.Time
	sealed      []segInfo // oldest first
	sealedBytes int64

	// curSeg is the ordinal of the active segment; sealed ordinals are
	// strictly below it. Atomic because Get resolves ordinals to file
	// names concurrently with rotation.
	curSeg atomic.Int64

	trace atomic.Pointer[obs.Trace]

	appends   atomic.Int64
	drops     atomic.Int64
	written   atomic.Int64
	diskBytes atomic.Int64
	segments  atomic.Int64
	werr      atomic.Pointer[string] // first writer error, sticky
}

// Open builds a Store over Options.Dir: it recovers the in-memory index
// by scanning the existing segments oldest-first (a torn trailing line —
// a crashed writer — is truncated away, and everything before it
// survives) and starts the async writer.
func Open(o Options) (*Store, error) {
	if o.Dir == "" {
		return nil, errors.New("archive: Options.Dir is required")
	}
	s := &Store{
		opts:    o.withDefaults(),
		dir:     o.Dir,
		byID:    map[string]int{},
		pending: map[string]*Record{},
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.ch = make(chan *Record, s.opts.QueueDepth)
	s.done = make(chan struct{})
	go s.runWriter()
	return s, nil
}

// AttachTrace routes archive.record events into tr — called by the
// service once its trace exists (the store is constructed first, by
// whoever owns the directory). Safe concurrent with appends.
func (s *Store) AttachTrace(tr *obs.Trace) {
	if s == nil {
		return
	}
	s.trace.Store(tr)
}

func segFile(ord int64) string { return fmt.Sprintf("seg-%06d.jsonl", ord) }

const activeFile = "active.jsonl"

// recover scans Dir and rebuilds the index. Sealed segments are indexed
// up to their first bad line (a torn tail loses only the torn line); the
// active segment is additionally truncated to its intact prefix so
// subsequent appends can never merge into a torn line.
func (s *Store) recover() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	var ords []int64
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".jsonl"), 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("archive: unexpected segment name %q", name)
		}
		ords = append(ords, n)
	}
	sort.Slice(ords, func(i, j int) bool { return ords[i] < ords[j] })
	maxOrd := int64(0)
	for _, ord := range ords {
		info, err := s.indexSegment(filepath.Join(s.dir, segFile(ord)), ord, false)
		if err != nil {
			return err
		}
		s.sealed = append(s.sealed, info)
		s.sealedBytes += info.bytes
		maxOrd = ord
	}
	s.curSeg.Store(maxOrd + 1)
	apath := filepath.Join(s.dir, activeFile)
	if _, err := os.Stat(apath); err == nil {
		info, err := s.indexSegment(apath, s.curSeg.Load(), true)
		if err != nil {
			return err
		}
		s.activeN = info.bytes
		s.activeNew = info.newest
	}
	s.diskBytes.Store(s.sealedBytes + s.activeN)
	s.segments.Store(int64(len(s.sealed)) + boolInt(s.activeN > 0))
	return nil
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// indexSegment scans one segment file into the index, up to its first
// torn or damaged line, returning its accounting. With truncate set (the
// active segment), the file is cut back to that intact prefix; a sealed
// segment keeps its bytes, and all of them count against MaxBytes.
func (s *Store) indexSegment(path string, ord int64, truncate bool) (segInfo, error) {
	info := segInfo{ord: ord}
	f, err := os.Open(path)
	if err != nil {
		return info, fmt.Errorf("archive: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return info, fmt.Errorf("archive: %w", err)
	}
	good := int64(0) // offset just past the last intact line
	br := bufio.NewReader(f)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			break // EOF, or an unterminated (torn) trailing line
		}
		rec, ok := decodeLine(line)
		if !ok {
			break // torn or damaged: keep the intact prefix only
		}
		good += int64(len(line))
		sum := rec.summary()
		sum.seg = ord
		s.index = append(s.index, sum)
		s.byID[sum.ID] = len(s.index) - 1
		if n := idSeq(sum.ID); n > s.seq {
			s.seq = n
		}
		if rec.Time.After(info.newest) {
			info.newest = rec.Time
		}
	}
	cerr := f.Close()
	if cerr != nil {
		return info, fmt.Errorf("archive: %w", cerr)
	}
	info.bytes = fi.Size()
	if truncate {
		if err := os.Truncate(path, good); err != nil {
			return info, fmt.Errorf("archive: %w", err)
		}
		info.bytes = good
	}
	return info, nil
}

// crcKey introduces a segment line's checksum. A line is a record's JSON
// with a CRC-32C of that JSON spliced in as its last key, {…,"crc":N},
// so a torn or overwritten line never passes for a record: recovery and
// Get accept a line only when its checksum matches.
const crcKey = `,"crc":`

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeLine renders rec as one newline-terminated segment line.
func encodeLine(rec *Record) ([]byte, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	sum := crc32.Checksum(b, crcTable)
	b = append(b[:len(b)-1], crcKey...)
	b = strconv.AppendUint(b, uint64(sum), 10)
	return append(b, '}', '\n'), nil
}

// decodeLine parses one segment line; false unless its checksum matches
// and it holds a record with an ID.
func decodeLine(line []byte) (*Record, bool) {
	line = bytes.TrimSuffix(line, []byte{'\n'})
	i := bytes.LastIndex(line, []byte(crcKey))
	if i < 0 || line[len(line)-1] != '}' {
		return nil, false
	}
	sum, err := strconv.ParseUint(string(line[i+len(crcKey):len(line)-1]), 10, 32)
	if err != nil {
		return nil, false
	}
	body := append(line[:i:i], '}')
	if crc32.Checksum(body, crcTable) != uint32(sum) {
		return nil, false
	}
	var rec Record
	if json.Unmarshal(body, &rec) != nil || rec.ID == "" {
		return nil, false
	}
	return &rec, true
}

// idSeq parses the numeric part of a record ID ("a17" → 17); 0 for
// anything else.
func idSeq(id string) int64 {
	if !strings.HasPrefix(id, "a") {
		return 0
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// Append accepts one record: it is assigned an ID, stamped with the
// clock when it carries no time, indexed, and handed to the async writer.
// Append never blocks — a full writer queue drops the record (counted in
// StoreStats.Dropped) rather than delaying the caller. The Store takes
// ownership of rec; the caller must not retain or mutate it. Nil-safe,
// like every hot-path observability seam in this codebase.
func (s *Store) Append(rec *Record) {
	if s == nil || rec == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.seq++
	rec.ID = "a" + strconv.FormatInt(s.seq, 10)
	if rec.Time.IsZero() {
		rec.Time = s.opts.Clock.Now()
	}
	if rec.Outcome == "" {
		rec.Outcome = OutcomeOK
	}
	rec.Advised = rec.Advice != nil
	sum := rec.summary()
	s.index = append(s.index, sum)
	s.byID[rec.ID] = len(s.index) - 1
	s.pending[rec.ID] = rec
	select {
	case s.ch <- rec:
		s.appends.Add(1)
	default:
		// Queue full: the writer is stalled. Drop the record — it was
		// never durable and must not linger in memory unboundedly.
		delete(s.pending, rec.ID)
		s.removeLocked(rec.ID)
		s.drops.Add(1)
	}
	s.mu.Unlock()
}

// removeLocked deletes one record from the index. Caller holds mu.
func (s *Store) removeLocked(id string) {
	i, ok := s.byID[id]
	if !ok {
		return
	}
	s.index = append(s.index[:i], s.index[i+1:]...)
	delete(s.byID, id)
	for j := i; j < len(s.index); j++ {
		s.byID[s.index[j].ID] = j
	}
}

// emit reports one persisted record as an archive.record event.
func (s *Store) emit(rec *Record, size int, dur float64) {
	tr := s.trace.Load()
	if tr == nil || !tr.Enabled() {
		return
	}
	t := tr.WithRequest(rec.Request)
	t.Emit(obs.Event{
		Kind:  obs.ArchiveRecord,
		Label: rec.Solver,
		Phase: rec.Outcome,
		Node:  size,
		Dur:   dur,
	})
}

// runWriter is the async writer: it encodes, appends, rotates, and
// retains — all off the solve path.
func (s *Store) runWriter() {
	defer close(s.done)
	for rec := range s.ch {
		if s.gate != nil {
			<-s.gate
		}
		s.persist(rec)
	}
	if s.active != nil {
		if err := s.active.Sync(); err != nil {
			s.setErr(err)
		}
		if err := s.active.Close(); err != nil {
			s.setErr(err)
		}
		s.active = nil
	}
}

func (s *Store) setErr(err error) {
	if err == nil {
		return
	}
	msg := err.Error()
	s.werr.CompareAndSwap(nil, &msg)
}

// persist writes one record to the active segment, stamps its index
// entry with the segment ordinal, then applies rotation and retention.
func (s *Store) persist(rec *Record) {
	t0 := s.opts.Clock.Now()
	line, err := encodeLine(rec)
	if err == nil {
		if s.active == nil {
			s.active, err = os.OpenFile(filepath.Join(s.dir, activeFile),
				os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		}
		if err == nil {
			_, err = s.active.Write(line)
		}
	}
	s.mu.Lock()
	delete(s.pending, rec.ID)
	if err != nil {
		// Never durable: drop from the index so queries reflect disk.
		s.removeLocked(rec.ID)
		s.mu.Unlock()
		s.drops.Add(1)
		s.setErr(err)
		return
	}
	if i, ok := s.byID[rec.ID]; ok {
		s.index[i].seg = s.curSeg.Load()
	}
	s.mu.Unlock()
	s.activeN += int64(len(line))
	if rec.Time.After(s.activeNew) {
		s.activeNew = rec.Time
	}
	s.written.Add(1)
	s.emit(rec, len(line), s.opts.Clock.Now().Sub(t0).Seconds())
	if s.activeN >= s.opts.MaxSegmentBytes {
		s.rotate()
	}
	s.retain()
	s.diskBytes.Store(s.sealedBytes + s.activeN)
	s.segments.Store(int64(len(s.sealed)) + boolInt(s.activeN > 0))
}

// rotate seals the active segment: fsync, close, and an atomic rename to
// its ordinal name. A crash at any point leaves either the old active
// file or the sealed file — never both, never a partial rename.
func (s *Store) rotate() {
	if s.active == nil || s.activeN == 0 {
		return
	}
	if err := s.active.Sync(); err != nil {
		s.setErr(err)
	}
	if err := s.active.Close(); err != nil {
		s.setErr(err)
	}
	s.active = nil
	ord := s.curSeg.Load()
	if err := os.Rename(filepath.Join(s.dir, activeFile), filepath.Join(s.dir, segFile(ord))); err != nil {
		s.setErr(err)
		return
	}
	s.sealed = append(s.sealed, segInfo{ord: ord, bytes: s.activeN, newest: s.activeNew})
	s.sealedBytes += s.activeN
	s.activeN = 0
	s.activeNew = time.Time{}
	// Publish the new active ordinal only after the rename: Get resolves
	// curSeg to active.jsonl, and until the rename lands that file still
	// holds the old ordinal's records.
	s.curSeg.Add(1)
}

// retain enforces the size and age bounds on whole sealed segments,
// oldest first: a segment goes once the total is over MaxBytes, or once
// its newest record is older than the age cutoff. The active segment is
// never touched, and a sealed segment that straddles the cutoff stays
// until its newest record expires; until then List and Get hide its
// expired records.
func (s *Store) retain() {
	cutoff := s.cutoff()
	for len(s.sealed) > 0 {
		over := s.opts.MaxBytes > 0 && s.sealedBytes+s.activeN > s.opts.MaxBytes
		if !over && !s.sealed[0].newest.Before(cutoff) {
			return
		}
		if !s.dropSegment() {
			return
		}
	}
}

// cutoff is the age horizon: records older than it are expired. It is
// the zero time, which no record precedes, when MaxAge is unset, so the
// clock is read only under age retention.
func (s *Store) cutoff() time.Time {
	if s.opts.MaxAge <= 0 {
		return time.Time{}
	}
	return s.opts.Clock.Now().Add(-s.opts.MaxAge)
}

// dropSegment deletes the oldest sealed segment and prunes its records
// from the index; false when the file could not be removed, which stops
// the retention sweep instead of retrying it forever.
func (s *Store) dropSegment() bool {
	seg := s.sealed[0]
	if err := os.Remove(filepath.Join(s.dir, segFile(seg.ord))); err != nil && !errors.Is(err, fs.ErrNotExist) {
		s.setErr(err)
		return false
	}
	s.sealed = s.sealed[1:]
	s.sealedBytes -= seg.bytes
	s.pruneSeg(seg.ord)
	return true
}

// pruneSeg removes the index entries living in segment ord.
func (s *Store) pruneSeg(ord int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.index[:0]
	for _, sum := range s.index {
		if sum.seg == ord {
			delete(s.byID, sum.ID)
			continue
		}
		kept = append(kept, sum)
	}
	s.index = kept
	for i, sum := range s.index {
		s.byID[sum.ID] = i
	}
}

// Get returns the full record for id: from the pending queue while the
// writer has not landed it, otherwise read back from its segment. An
// expired record (see Options.MaxAge) is not found.
func (s *Store) Get(id string) (*Record, bool) {
	if s == nil {
		return nil, false
	}
	cutoff := s.cutoff()
	s.mu.Lock()
	i, ok := s.byID[id]
	if !ok || s.index[i].Time.Before(cutoff) {
		s.mu.Unlock()
		return nil, false
	}
	if rec, ok := s.pending[id]; ok {
		cp := *rec
		s.mu.Unlock()
		return &cp, true
	}
	ord := s.index[i].seg
	s.mu.Unlock()
	// Two attempts cover a rotation racing the lookup: the first open can
	// hit active.jsonl just as it is renamed to its sealed name.
	for attempt := 0; attempt < 2; attempt++ {
		name := segFile(ord)
		if ord == s.curSeg.Load() {
			name = activeFile
		}
		f, err := os.Open(filepath.Join(s.dir, name))
		if err != nil {
			continue
		}
		rec, found := scanForID(f, id)
		if cerr := f.Close(); cerr != nil {
			s.setErr(cerr)
		}
		if found {
			return rec, true
		}
	}
	return nil, false
}

// scanForID reads a segment looking for one record.
func scanForID(r io.Reader, id string) (*Record, bool) {
	needle := []byte(`"id":"` + id + `"`)
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return nil, false
		}
		if !bytes.Contains(line, needle) {
			continue
		}
		if rec, ok := decodeLine(line); ok && rec.ID == id {
			return rec, true
		}
	}
}

// Filter selects records for List and Stats. The zero value matches
// everything.
type Filter struct {
	Instance string    // canonical hash, or a hash prefix
	Solver   string    // exact solver name
	Outcome  string    // exact outcome
	Since    time.Time // inclusive lower bound on Record.Time
	Until    time.Time // exclusive upper bound
	Limit    int       // max results for List, newest first; 0 = all
}

func (f Filter) match(s Summary) bool {
	if f.Instance != "" && !strings.HasPrefix(s.Hash, f.Instance) {
		return false
	}
	if f.Solver != "" && s.Solver != f.Solver {
		return false
	}
	if f.Outcome != "" && s.Outcome != f.Outcome {
		return false
	}
	if !f.Since.IsZero() && s.Time.Before(f.Since) {
		return false
	}
	if !f.Until.IsZero() && !s.Time.Before(f.Until) {
		return false
	}
	return true
}

// List returns matching record summaries, newest first. Expired records
// (see Options.MaxAge) never match.
func (s *Store) List(f Filter) []Summary {
	if s == nil {
		return nil
	}
	if cutoff := s.cutoff(); f.Since.Before(cutoff) {
		f.Since = cutoff
	}
	s.mu.Lock()
	snap := make([]Summary, len(s.index))
	copy(snap, s.index)
	s.mu.Unlock()
	out := []Summary{}
	for i := len(snap) - 1; i >= 0; i-- {
		if !f.match(snap[i]) {
			continue
		}
		out = append(out, snap[i])
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// SolverStats aggregates one solver's archived outcomes.
type SolverStats struct {
	Count     int `json:"count"`
	OK        int `json:"ok"`
	Cancelled int `json:"cancelled,omitempty"`
	Errors    int `json:"errors,omitempty"`
	// Wins counts instances, each under one objective (see instanceKey),
	// where this solver's best feasible objective beat every other solver
	// that also solved it — only those with ≥2 distinct solvers
	// participate.
	Wins               int     `json:"wins"`
	MeanFinalObjective float64 `json:"meanFinalObjective,omitempty"`
	P50RuntimeSeconds  float64 `json:"p50RuntimeSeconds,omitempty"`
	P95RuntimeSeconds  float64 `json:"p95RuntimeSeconds,omitempty"`
}

// Stats is the per-solver aggregate view behind GET /v1/archive/stats.
type Stats struct {
	Records   int                     `json:"records"`
	Instances int                     `json:"instances"`
	Solvers   map[string]*SolverStats `json:"solvers"`
}

// Stats aggregates the matching records per solver.
func (s *Store) Stats(f Filter) Stats {
	f.Limit = 0
	recs := s.List(f)
	st := Stats{Records: len(recs), Solvers: map[string]*SolverStats{}}
	hashes := map[string]bool{}
	runtimes := map[string][]float64{}
	for _, r := range recs {
		hashes[r.Hash] = true
		ss := st.Solvers[r.Solver]
		if ss == nil {
			ss = &SolverStats{}
			st.Solvers[r.Solver] = ss
		}
		ss.Count++
		switch r.Outcome {
		case OutcomeOK:
			ss.OK++
		case OutcomeCancelled:
			ss.Cancelled++
		default:
			ss.Errors++
		}
		if r.Outcome == OutcomeOK && r.Feasible {
			ss.MeanFinalObjective += r.FinalObjective
		}
		runtimes[r.Solver] = append(runtimes[r.Solver], r.RuntimeSeconds)
	}
	st.Instances = len(hashes)
	for solver, ss := range st.Solvers {
		if ss.OK > 0 {
			n := 0
			for _, r := range recs {
				if r.Solver == solver && r.Outcome == OutcomeOK && r.Feasible {
					n++
				}
			}
			if n > 0 {
				ss.MeanFinalObjective /= float64(n)
			} else {
				ss.MeanFinalObjective = 0
			}
		}
		rt := runtimes[solver]
		sort.Float64s(rt)
		ss.P50RuntimeSeconds = quantile(rt, 0.50)
		ss.P95RuntimeSeconds = quantile(rt, 0.95)
	}
	for solver, n := range winCounts(recs) {
		if ss := st.Solvers[solver]; ss != nil {
			ss.Wins = n
		}
	}
	return st
}

// quantile reads the q-quantile of sorted (nearest-rank); 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// winCounts groups ok+feasible records by instanceKey and, on each key
// solved by ≥2 distinct solvers, credits the solver with the lowest best
// objective (ties to the lexically smaller solver name, for
// determinism).
func winCounts(recs []Summary) map[string]int {
	byKey := map[instanceKey]map[string]float64{}
	for _, r := range recs {
		if r.Outcome != OutcomeOK || !r.Feasible {
			continue
		}
		m := byKey[r.key()]
		if m == nil {
			m = map[string]float64{}
			byKey[r.key()] = m
		}
		if b, ok := m[r.Solver]; !ok || r.FinalObjective < b {
			m[r.Solver] = r.FinalObjective
		}
	}
	wins := map[string]int{}
	for _, m := range byKey {
		if len(m) < 2 {
			continue
		}
		solvers := make([]string, 0, len(m))
		for sv := range m {
			solvers = append(solvers, sv)
		}
		sort.Strings(solvers)
		winner := solvers[0]
		for _, sv := range solvers[1:] {
			if m[sv] < m[winner] {
				winner = sv
			}
		}
		wins[winner]++
	}
	return wins
}

// StoreStats is the operational accounting behind the archive gauges.
type StoreStats struct {
	Records   int    `json:"records"` // indexed records (memory-resident summaries, expired ones included until their segment goes)
	Pending   int    `json:"pending"` // accepted, not yet durable
	Appends   int64  `json:"appends"`
	Dropped   int64  `json:"dropped"`
	Written   int64  `json:"written"`
	DiskBytes int64  `json:"diskBytes"`
	Segments  int64  `json:"segments"`
	Err       string `json:"err,omitempty"` // first writer error, sticky
}

// StoreStats snapshots the operational counters.
func (s *Store) StoreStats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	records, pending := len(s.index), len(s.pending)
	s.mu.Unlock()
	st := StoreStats{
		Records:   records,
		Pending:   pending,
		Appends:   s.appends.Load(),
		Dropped:   s.drops.Load(),
		Written:   s.written.Load(),
		DiskBytes: s.diskBytes.Load(),
		Segments:  s.segments.Load(),
	}
	if msg := s.werr.Load(); msg != nil {
		st.Err = *msg
	}
	return st
}

// Close stops accepting records, drains the writer queue (every accepted
// record is durable on return) and reports the first writer error, if
// any. Safe to call more than once.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	s.mu.Unlock()
	if first {
		close(s.ch)
	}
	<-s.done
	if msg := s.werr.Load(); msg != nil {
		return fmt.Errorf("archive: %s", *msg)
	}
	return nil
}
