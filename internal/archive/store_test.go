package archive

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"nocdeploy/internal/obs"
)

// testClock is a deterministic clock advancing one second per call.
func testClock() obs.Clock {
	tick := int64(0)
	return obs.Clock(func() time.Time {
		tick++
		return time.Unix(1_700_000_000+tick, 0)
	})
}

// at builds the deterministic record timestamp for index i.
func at(i int) time.Time { return time.Unix(1_700_000_000+int64(i), 0) }

// rec builds a minimal ok+feasible record.
func rec(hash, solver string, obj float64, t time.Time) *Record {
	return &Record{Summary: Summary{
		Hash:           hash,
		Tasks:          8,
		MeshW:          2,
		MeshH:          2,
		Solver:         solver,
		Objective:      "be",
		Outcome:        OutcomeOK,
		Feasible:       true,
		FinalObjective: obj,
		RuntimeSeconds: obj / 10,
		Time:           t,
	}}
}

func openTest(t *testing.T, dir string, o Options) *Store {
	t.Helper()
	o.Dir = dir
	if o.Clock == nil {
		o.Clock = testClock()
	}
	s, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAppendListGetStats(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	s.Append(rec("hashA", "repair", 10, at(1)))
	s.Append(rec("hashA", "anneal", 9, at(2)))
	s.Append(rec("hashB", "repair", 20, at(3)))
	bad := rec("hashB", "anneal", 0, at(4))
	bad.Outcome = OutcomeError
	bad.Feasible = false
	bad.Error = "solver exploded"
	s.Append(bad)

	all := s.List(Filter{})
	if len(all) != 4 {
		t.Fatalf("List: %d records, want 4", len(all))
	}
	if all[0].ID != "a4" || all[3].ID != "a1" {
		t.Fatalf("List not newest-first: %s ... %s", all[0].ID, all[3].ID)
	}
	if got := s.List(Filter{Solver: "anneal"}); len(got) != 2 {
		t.Fatalf("solver filter: %d, want 2", len(got))
	}
	if got := s.List(Filter{Instance: "hashA"}); len(got) != 2 {
		t.Fatalf("instance filter: %d, want 2", len(got))
	}
	if got := s.List(Filter{Outcome: OutcomeError}); len(got) != 1 || got[0].ID != "a4" {
		t.Fatalf("outcome filter: %+v", got)
	}
	if got := s.List(Filter{Limit: 1}); len(got) != 1 || got[0].ID != "a4" {
		t.Fatalf("limit: %+v", got)
	}
	if got := s.List(Filter{Since: at(3)}); len(got) != 2 {
		t.Fatalf("since filter: %d, want 2", len(got))
	}
	if got := s.List(Filter{Until: at(3)}); len(got) != 2 {
		t.Fatalf("until filter: %d, want 2", len(got))
	}

	got, ok := s.Get("a4")
	if !ok {
		t.Fatal("Get a4 failed")
	}
	if got.Error != "solver exploded" || got.Outcome != OutcomeError {
		t.Fatalf("Get round-trip: %+v", got)
	}
	if _, ok := s.Get("a99"); ok {
		t.Fatal("Get of an unknown ID succeeded")
	}

	st := s.Stats(Filter{})
	if st.Records != 4 || st.Instances != 2 {
		t.Fatalf("Stats: records=%d instances=%d", st.Records, st.Instances)
	}
	// hashA was solved by both solvers; anneal's 9 beats repair's 10.
	if st.Solvers["anneal"].Wins != 1 || st.Solvers["repair"].Wins != 0 {
		t.Fatalf("wins: anneal=%d repair=%d", st.Solvers["anneal"].Wins, st.Solvers["repair"].Wins)
	}
	if st.Solvers["repair"].Count != 2 || st.Solvers["repair"].OK != 2 {
		t.Fatalf("repair stats: %+v", st.Solvers["repair"])
	}
	if st.Solvers["anneal"].Errors != 1 {
		t.Fatalf("anneal errors: %+v", st.Solvers["anneal"])
	}
	if m := st.Solvers["repair"].MeanFinalObjective; m != 15 {
		t.Fatalf("repair mean objective = %v, want 15", m)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Append after Close is a silent no-op, not a panic.
	s.Append(rec("hashA", "repair", 1, at(99)))
	if got := s.StoreStats().Records; got != 4 {
		t.Fatalf("append after Close indexed a record: %d records", got)
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without a Dir succeeded")
	}
}

// TestStatsWinsKeyedByObjective: a win needs two solvers on one
// instance under one objective. Repair's BE 3.0 never competes with the
// ME records, where anneal's 10.0 beats repair's 12.0.
func TestStatsWinsKeyedByObjective(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	for _, r := range objectiveMix() {
		s.Append(r)
	}
	st := s.Stats(Filter{})
	if st.Solvers["anneal"].Wins != 1 || st.Solvers["repair"].Wins != 0 {
		t.Fatalf("wins: anneal=%d repair=%d, want 1 and 0", st.Solvers["anneal"].Wins, st.Solvers["repair"].Wins)
	}
}

func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{MaxSegmentBytes: 512})
	const n = 40
	for i := 1; i <= n; i++ {
		s.Append(rec("hash", "repair", float64(i), at(i)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{MaxSegmentBytes: 512})
	defer func() {
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	st := s2.StoreStats()
	if st.Records != n {
		t.Fatalf("recovered %d records, want %d", st.Records, n)
	}
	if st.Segments < 2 {
		t.Fatalf("want rotation to have sealed segments, got %d", st.Segments)
	}
	// Sealed and active records both resolve to full records.
	for _, id := range []string{"a1", "a20", "a40"} {
		got, ok := s2.Get(id)
		if !ok {
			t.Fatalf("Get %s after restart failed", id)
		}
		if got.ID != id {
			t.Fatalf("Get %s returned %s", id, got.ID)
		}
	}
	// New appends continue the ID sequence instead of colliding.
	s2.Append(rec("hash", "repair", 1, at(n+1)))
	if _, ok := s2.Get("a41"); !ok {
		t.Fatal("post-restart append did not continue the ID sequence")
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	s.Append(rec("hash", "repair", 1, at(1)))
	s.Append(rec("hash", "repair", 2, at(2)))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crashed writer: a torn half-record at the active tail.
	active := filepath.Join(dir, activeFile)
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"a3","time":"2023-`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tornSize := fileSize(t, active)

	s2 := openTest(t, dir, Options{})
	if got := s2.StoreStats().Records; got != 2 {
		t.Fatalf("recovered %d records, want 2 (torn line dropped)", got)
	}
	if now := fileSize(t, active); now >= tornSize {
		t.Fatalf("active not truncated: %d >= %d", now, tornSize)
	}
	// The truncated file accepts appends cleanly.
	s2.Append(rec("hash", "repair", 3, at(3)))
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openTest(t, dir, Options{})
	if got := s3.StoreStats().Records; got != 3 {
		t.Fatalf("after torn-tail truncation + append: %d records, want 3", got)
	}
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestRetentionBoundsDisk is the acceptance bound: 1000+ recorded solves
// against a small byte budget keep the directory (and the index) bounded,
// with the oldest records dropped.
func TestRetentionBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	const maxBytes = 16 << 10
	const n = 1200
	// Queue sized to the burst: this test measures retention, not
	// backpressure (TestAppendNeverBlocks covers drops).
	s := openTest(t, dir, Options{MaxSegmentBytes: 2 << 10, MaxBytes: maxBytes, QueueDepth: n})
	for i := 1; i <= n; i++ {
		s.Append(rec("hash", "repair", float64(i), at(i)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.StoreStats(); st.Dropped != 0 {
		t.Fatalf("%d drops with a burst-sized queue", st.Dropped)
	}
	var total int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		total += fileSize(t, filepath.Join(dir, e.Name()))
	}
	if total > maxBytes {
		t.Fatalf("on-disk size %d exceeds the %d budget", total, maxBytes)
	}
	s2 := openTest(t, dir, Options{MaxSegmentBytes: 2 << 10, MaxBytes: maxBytes, QueueDepth: n})
	defer func() {
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	st := s2.StoreStats()
	if st.Records >= n || st.Records == 0 {
		t.Fatalf("index records = %d, want 0 < records < %d (oldest dropped)", st.Records, n)
	}
	if _, ok := s2.Get("a1"); ok {
		t.Fatal("oldest record survived a full retention sweep")
	}
	if _, ok := s2.Get("a" + strconv.Itoa(n)); !ok {
		t.Fatal("newest record did not survive retention")
	}
}

func TestMaxAgeExpiry(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{MaxSegmentBytes: 1 << 10, MaxAge: 50 * time.Second})
	// The fake clock starts near tick 0; records at(1..10) are far older
	// than 50s by the time retention runs against later ticks — except
	// retention's cutoff comes from the same clock, so drive the spread
	// explicitly: old records first, then fresh ones at much later ticks.
	for i := 1; i <= 20; i++ {
		s.Append(rec("old", "repair", float64(i), at(i)))
	}
	for i := 1; i <= 20; i++ {
		s.Append(rec("new", "repair", float64(i), at(10_000+i)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, Options{MaxSegmentBytes: 1 << 10, MaxAge: 50 * time.Second})
	defer func() {
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if got := s2.List(Filter{Instance: "old"}); len(got) != 0 {
		t.Fatalf("%d expired records survived", len(got))
	}
	if got := s2.List(Filter{Instance: "new"}); len(got) == 0 {
		t.Fatal("fresh records did not survive age retention")
	}
}

// TestAppendNeverBlocks pins the write-only contract's latency half: a
// fully stalled writer (gated) and a full queue cost Append nothing but a
// drop counter — mirroring the event log's backpressure proof.
func TestAppendNeverBlocks(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{QueueDepth: 4})
	gate := make(chan struct{})
	s.gate = gate // writer blocks per record until the gate feeds it

	const n = 100
	start := time.Now()
	for i := 1; i <= n; i++ {
		s.Append(rec("hash", "repair", float64(i), at(i)))
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("appends against a stalled writer took %v", elapsed)
	}
	st := s.StoreStats()
	if st.Dropped == 0 {
		t.Fatal("full queue recorded no drops")
	}
	if st.Appends+st.Dropped != n {
		t.Fatalf("appends %d + drops %d != %d", st.Appends, st.Dropped, n)
	}
	// Index only holds what will become durable.
	if int64(st.Records) != st.Appends {
		t.Fatalf("index records %d != accepted appends %d", st.Records, st.Appends)
	}
	close(gate) // un-stall the writer; Close drains the queue
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.StoreStats(); st.Written != st.Appends {
		t.Fatalf("written %d != accepted %d after Close", st.Written, st.Appends)
	}
}

// TestDeterministicSegments: with a fake clock and fixed content, the
// archived bytes are a pure function of the appended records.
func TestDeterministicSegments(t *testing.T) {
	write := func(dir string) {
		s := openTest(t, dir, Options{MaxSegmentBytes: 1 << 10})
		for i := 1; i <= 30; i++ {
			r := rec("hash", "repair", float64(i), at(i))
			r.Stages = map[string]float64{"solve": float64(i) / 100, "queue": 0.001}
			r.Trajectory = []TrajPoint{{T: 0.1, Obj: float64(i)}}
			s.Append(r)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	write(dirA)
	write(dirB)
	entsA, err := os.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	if len(entsA) < 2 {
		t.Fatalf("want multiple segment files, got %d", len(entsA))
	}
	for _, e := range entsA {
		a, err := os.ReadFile(filepath.Join(dirA, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, e.Name()))
		if err != nil {
			t.Fatalf("segment %s missing in the twin store: %v", e.Name(), err)
		}
		if string(a) != string(b) {
			t.Fatalf("segment %s differs between identical stores", e.Name())
		}
	}
}

// waitFor polls cond until it holds, failing the test after a deadline:
// the writer lands, rotates and retains asynchronously.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMaxAgeStraddlingSegment: a sealed segment holding records on both
// sides of the age cutoff never lists or returns its expired records,
// and the segment itself is deleted once its newest record expires.
func TestMaxAgeStraddlingSegment(t *testing.T) {
	dir := t.TempDir()
	var now atomic.Int64 // unix seconds; the writer reads it concurrently
	now.Store(at(141).Unix())
	clock := obs.Clock(func() time.Time { return time.Unix(now.Load(), 0) })
	s := openTest(t, dir, Options{MaxSegmentBytes: 800, MaxAge: 50 * time.Second, Clock: clock})
	defer func() {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	seg := filepath.Join(dir, segFile(1))
	sealed := func() bool {
		_, err := os.Stat(seg)
		return err == nil
	}
	// live reports whether exactly want, of a1..a4, are listed and fetched.
	live := func(want ...string) bool {
		listed := map[string]bool{}
		for _, sum := range s.List(Filter{}) {
			listed[sum.ID] = true
		}
		for _, id := range []string{"a1", "a2", "a3", "a4"} {
			_, got := s.Get(id)
			wanted := slices.Contains(want, id)
			if got != wanted || listed[id] != wanted {
				return false
			}
		}
		return true
	}
	for i, ti := range []int{100, 101, 140, 141} {
		s.Append(rec("hash", "repair", float64(i+1), at(ti)))
	}
	waitFor(t, "four records to seal the first segment", func() bool {
		return sealed() && live("a1", "a2", "a3", "a4")
	})

	// Cutoff at(120): a1 and a2 expire; a3 and a4 share their segment.
	now.Store(at(170).Unix())
	s.Append(rec("hash", "repair", 5, at(170)))
	waitFor(t, "a1 and a2 to expire", func() bool { return live("a3", "a4") })
	if !sealed() {
		t.Fatal("segment with live records deleted")
	}

	// Cutoff at(200): the segment's newest record expires, and the next
	// append deletes the segment.
	now.Store(at(250).Unix())
	s.Append(rec("hash", "repair", 6, at(250)))
	waitFor(t, "the expired segment to be deleted", func() bool { return !sealed() && live() })
	if got := s.List(Filter{Limit: 1}); len(got) != 1 || got[0].ID != "a6" {
		t.Fatalf("newest record: %+v, want a6", got)
	}
}

// TestRetentionSkipsVanishedSegment: a sealed segment deleted behind the
// store's back does not stall retention. The writer counts it as gone,
// goes on deleting segments to fit MaxBytes, and Close returns.
func TestRetentionSkipsVanishedSegment(t *testing.T) {
	dir := t.TempDir()
	const maxBytes = 4 << 10
	s := openTest(t, dir, Options{MaxSegmentBytes: 1 << 10, MaxBytes: maxBytes, QueueDepth: 64})
	for i := 1; i <= 10; i++ {
		s.Append(rec("hash", "repair", float64(i), at(i)))
	}
	waitFor(t, "ten records to land", func() bool { return s.StoreStats().Written >= 10 })
	if err := os.Remove(filepath.Join(dir, segFile(1))); err != nil {
		t.Fatal(err)
	}
	for i := 11; i <= 60; i++ {
		s.Append(rec("hash", "repair", float64(i), at(i)))
	}
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung: retention is stuck on the vanished segment")
	}
	var total int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		total += fileSize(t, filepath.Join(dir, e.Name()))
	}
	if total > maxBytes {
		t.Fatalf("on-disk size %d exceeds the %d budget", total, maxBytes)
	}
}
