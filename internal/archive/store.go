package archive

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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

// Options configures a Store. The zero value is a bounded in-memory
// archive (no Dir): full records are retained up to MemoryRecords — the
// mode tests and the ext-advisor experiment use. With Dir set, records
// persist as segmented JSONL under Dir and only compact Summaries stay
// resident.
type Options struct {
	// Dir is the segment directory; empty means memory-only.
	Dir string

	// MaxSegmentBytes seals the active segment once it grows past this
	// size; 0 means 4 MiB. Retention works at segment granularity, so
	// smaller segments bound disk usage more tightly.
	MaxSegmentBytes int64
	// MaxBytes bounds total on-disk size: once exceeded, whole oldest
	// sealed segments are deleted. 0 means 256 MiB; negative disables.
	MaxBytes int64
	// MaxAge expires records: segments whose newest record is older are
	// deleted, and the oldest surviving segment is compacted (rewritten
	// via temp+rename) to shed expired records. 0 disables.
	MaxAge time.Duration

	// QueueDepth bounds the async writer's queue; 0 means 256. Append
	// never blocks: when the queue is full the record is counted as
	// dropped instead — mirroring the event log's backpressure
	// contract (obs.Log), a slow disk can never delay a solve.
	QueueDepth int

	// MemoryRecords caps retained full records in memory-only mode;
	// 0 means 4096.
	MemoryRecords int

	// Clock stamps Record.Time for records appended without one; nil
	// means the wall clock. Tests inject a fake clock, under which the
	// archived bytes are a pure function of the appended content.
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
	if o.MemoryRecords <= 0 {
		o.MemoryRecords = 4096
	}
	return o
}

// segInfo is the writer's accounting for one sealed segment.
type segInfo struct {
	ord    int64 // segment ordinal; the file is seg-<ord>.jsonl
	bytes  int64
	oldest time.Time // oldest record time in the segment
	newest time.Time
}

// Store is the solve archive. Open creates one; Append is safe from any
// goroutine and never blocks (see Options.QueueDepth); queries (List,
// Get, Stats, Advise) are safe concurrent with appends; Close drains the
// writer queue so every accepted record is durable on return.
type Store struct {
	opts Options
	dir  string

	mu      sync.Mutex
	closed  bool
	seq     int64
	index   []Summary          // append-ordered (chronological)
	byID    map[string]int     // record ID → index position
	pending map[string]*Record // accepted, not yet durable (disk mode)
	memory  map[string]*Record // full records (memory mode)

	ch   chan *Record  // nil in memory mode
	done chan struct{} // closed when the writer exits
	gate chan struct{} // test hook: writer blocks per record when non-nil

	// Writer-owned segment state (single goroutine; no locking).
	active      *os.File
	activeN     int64
	activeOld   time.Time
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

// Open builds a Store. With Options.Dir set it recovers the in-memory
// index by scanning the existing segments oldest-first (a torn trailing
// line — a crashed writer — is truncated away, and everything before it
// survives) and starts the async writer.
func Open(o Options) (*Store, error) {
	s := &Store{
		opts:    o.withDefaults(),
		dir:     o.Dir,
		byID:    map[string]int{},
		pending: map[string]*Record{},
	}
	if s.dir == "" {
		s.memory = map[string]*Record{}
		return s, nil
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
// as-is (a torn tail loses only the torn line); the active segment is
// additionally truncated to its intact prefix so subsequent appends can
// never merge into a torn line. Leftover compaction temp files (a crash
// between write and rename) are removed — the original segment is intact.
func (s *Store) recover() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	var ords []int64
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return fmt.Errorf("archive: %w", err)
			}
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".jsonl"):
			n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".jsonl"), 10, 64)
			if err != nil || n < 0 {
				return fmt.Errorf("archive: unexpected segment name %q", name)
			}
			ords = append(ords, n)
		}
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
		s.activeOld, s.activeNew = info.oldest, info.newest
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

// indexSegment scans one segment file into the index, returning its
// accounting. With truncate set (the active segment), the file is cut
// back to the intact prefix.
func (s *Store) indexSegment(path string, ord int64, truncate bool) (segInfo, error) {
	info := segInfo{ord: ord}
	f, err := os.Open(path)
	if err != nil {
		return info, fmt.Errorf("archive: %w", err)
	}
	good := int64(0) // offset just past the last intact line
	br := bufio.NewReader(f)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			break // EOF, or an unterminated (torn) trailing line
		}
		var rec Record
		if uerr := json.Unmarshal(bytes.TrimSpace(line), &rec); uerr != nil || rec.ID == "" {
			break // torn or corrupt: keep the intact prefix only
		}
		good += int64(len(line))
		sum := rec.summary()
		sum.seg = ord
		s.index = append(s.index, sum)
		s.byID[sum.ID] = len(s.index) - 1
		if n := idSeq(sum.ID); n > s.seq {
			s.seq = n
		}
		if info.oldest.IsZero() || rec.Time.Before(info.oldest) {
			info.oldest = rec.Time
		}
		if rec.Time.After(info.newest) {
			info.newest = rec.Time
		}
	}
	cerr := f.Close()
	if cerr != nil {
		return info, fmt.Errorf("archive: %w", cerr)
	}
	if truncate {
		if err := os.Truncate(path, good); err != nil {
			return info, fmt.Errorf("archive: %w", err)
		}
	}
	info.bytes = good
	return info, nil
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
	if s.ch == nil { // memory mode
		s.index = append(s.index, sum)
		s.byID[rec.ID] = len(s.index) - 1
		s.memory[rec.ID] = rec
		if len(s.memory) > s.opts.MemoryRecords {
			// Evict the oldest full record and its index entry; the index
			// is append-ordered, so the oldest still-resident entry leads.
			for _, old := range s.index {
				if _, ok := s.memory[old.ID]; ok {
					delete(s.memory, old.ID)
					s.removeLocked(old.ID)
					break
				}
			}
		}
		s.appends.Add(1)
		s.mu.Unlock()
		s.emit(rec, 0, 0)
		return
	}
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
	line, err := json.Marshal(rec)
	if err == nil {
		line = append(line, '\n')
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
	if s.activeOld.IsZero() {
		s.activeOld = rec.Time
	}
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
	s.sealed = append(s.sealed, segInfo{ord: ord, bytes: s.activeN, oldest: s.activeOld, newest: s.activeNew})
	s.sealedBytes += s.activeN
	s.activeN = 0
	s.activeOld, s.activeNew = time.Time{}, time.Time{}
	// Publish the new active ordinal only after the rename: Get resolves
	// curSeg to active.jsonl, and until the rename lands that file still
	// holds the old ordinal's records.
	s.curSeg.Add(1)
}

// retain enforces the size and age bounds: whole expired or over-budget
// segments are deleted oldest-first, then the oldest survivor is
// compacted (temp+rename rewrite) if it still straddles the age cutoff.
// Only sealed segments are ever touched.
func (s *Store) retain() {
	if s.opts.MaxBytes > 0 {
		for len(s.sealed) > 0 && s.sealedBytes+s.activeN > s.opts.MaxBytes {
			s.dropSegment()
		}
	}
	if s.opts.MaxAge > 0 {
		cutoff := s.opts.Clock.Now().Add(-s.opts.MaxAge)
		for len(s.sealed) > 0 && s.sealed[0].newest.Before(cutoff) {
			s.dropSegment()
		}
		if len(s.sealed) > 0 && s.sealed[0].oldest.Before(cutoff) {
			s.compactSegment(cutoff)
		}
	}
}

// dropSegment deletes the oldest sealed segment and prunes its records
// from the index.
func (s *Store) dropSegment() {
	seg := s.sealed[0]
	if err := os.Remove(filepath.Join(s.dir, segFile(seg.ord))); err != nil {
		s.setErr(err)
		return
	}
	s.sealed = s.sealed[1:]
	s.sealedBytes -= seg.bytes
	s.pruneSeg(seg.ord, nil)
}

// pruneSeg removes index entries living in segment ord. With keep
// non-nil, entries whose ID is in keep survive (compaction).
func (s *Store) pruneSeg(ord int64, keep map[string]bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.index[:0]
	for _, sum := range s.index {
		if sum.seg == ord && !keep[sum.ID] {
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

// compactSegment rewrites the oldest sealed segment keeping only records
// at or after cutoff, via a temp file renamed over the original — the
// crash-safe half of the retention contract: a crash leaves either the
// old segment or the fully-written replacement.
func (s *Store) compactSegment(cutoff time.Time) {
	seg := &s.sealed[0]
	path := filepath.Join(s.dir, segFile(seg.ord))
	in, err := os.Open(path)
	if err != nil {
		s.setErr(err)
		return
	}
	tmpPath := path + ".tmp"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		s.setErr(err)
		_ = in.Close()
		return
	}
	keep := map[string]bool{}
	out := segInfo{ord: seg.ord}
	br := bufio.NewReader(in)
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil {
			break
		}
		var rec Record
		if uerr := json.Unmarshal(bytes.TrimSpace(line), &rec); uerr != nil || rec.ID == "" {
			break
		}
		if rec.Time.Before(cutoff) {
			continue
		}
		if _, werr := tmp.Write(line); werr != nil {
			err = werr
			break
		}
		keep[rec.ID] = true
		out.bytes += int64(len(line))
		if out.oldest.IsZero() || rec.Time.Before(out.oldest) {
			out.oldest = rec.Time
		}
		if rec.Time.After(out.newest) {
			out.newest = rec.Time
		}
	}
	_ = in.Close()
	if serr := tmp.Sync(); err == nil {
		err = serr
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.setErr(err)
		_ = os.Remove(tmpPath)
		return
	}
	if err := os.Rename(tmpPath, path); err != nil {
		s.setErr(err)
		_ = os.Remove(tmpPath)
		return
	}
	s.sealedBytes += out.bytes - seg.bytes
	*seg = out
	s.pruneSeg(out.ord, keep)
	if out.bytes == 0 {
		// Everything expired: the (now empty) segment file can go too.
		s.dropSegment()
	}
}

// Get returns the full record for id: from the pending queue or the
// memory tier if still resident, otherwise read back from its segment.
func (s *Store) Get(id string) (*Record, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	if rec, ok := s.pending[id]; ok {
		cp := *rec
		s.mu.Unlock()
		return &cp, true
	}
	if rec, ok := s.memory[id]; ok {
		cp := *rec
		s.mu.Unlock()
		return &cp, true
	}
	i, ok := s.byID[id]
	if !ok {
		s.mu.Unlock()
		return nil, false
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
		var rec Record
		if json.Unmarshal(bytes.TrimSpace(line), &rec) == nil && rec.ID == id {
			return &rec, true
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

// List returns matching record summaries, newest first.
func (s *Store) List(f Filter) []Summary {
	if s == nil {
		return nil
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
	// Wins counts instances (by canonical hash) where this solver's best
	// feasible objective beat every other solver that also solved the
	// instance — only instances with ≥2 distinct solvers participate.
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

// winCounts groups ok+feasible records by instance hash and, on each
// instance solved by ≥2 distinct solvers, credits the solver with the
// lowest best objective (ties to the lexically smaller solver name, for
// determinism).
func winCounts(recs []Summary) map[string]int {
	type best struct{ obj float64 }
	byHash := map[string]map[string]best{}
	for _, r := range recs {
		if r.Outcome != OutcomeOK || !r.Feasible {
			continue
		}
		m := byHash[r.Hash]
		if m == nil {
			m = map[string]best{}
			byHash[r.Hash] = m
		}
		if b, ok := m[r.Solver]; !ok || r.FinalObjective < b.obj {
			m[r.Solver] = best{obj: r.FinalObjective}
		}
	}
	wins := map[string]int{}
	for _, m := range byHash {
		if len(m) < 2 {
			continue
		}
		winner := ""
		winObj := 0.0
		solvers := make([]string, 0, len(m))
		for sv := range m {
			solvers = append(solvers, sv)
		}
		sort.Strings(solvers)
		for _, sv := range solvers {
			if winner == "" || m[sv].obj < winObj {
				winner, winObj = sv, m[sv].obj
			}
		}
		wins[winner]++
	}
	return wins
}

// StoreStats is the operational accounting behind the archive gauges.
type StoreStats struct {
	Records   int    `json:"records"` // indexed records (memory-resident summaries)
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
	if s.ch != nil {
		if first {
			close(s.ch)
		}
		<-s.done
	}
	if msg := s.werr.Load(); msg != nil {
		return fmt.Errorf("archive: %s", *msg)
	}
	return nil
}
