package archive

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// fuzzStore writes the recovery fuzzer's archive under a fake clock:
// records of varied length across several sealed segments plus
// active.jsonl. It returns the records as written, by ID, and each
// file's record IDs and line end offsets, in file order (sealed segments
// by ordinal, then the active one).
func fuzzStore(t *testing.T, dir string) (map[string]*Record, []string, map[string][]string, map[string][]int64) {
	t.Helper()
	s := openTest(t, dir, Options{MaxSegmentBytes: 700})
	written := map[string]*Record{}
	var recs []*Record
	for i := 1; i <= 14; i++ {
		r := rec("hash", []string{"repair", "anneal", "portfolio"}[i%3], float64(i)/3, at(i))
		if i%2 == 0 {
			r.Objective = "me"
			r.Trajectory = []TrajPoint{{T: 0.5, Obj: float64(i)}}
		}
		if i%5 == 0 {
			r.Error = "line with a \"quoted\" detail"
		}
		s.Append(r)
		recs = append(recs, r)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		written[r.ID] = r
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		files = append(files, e.Name())
	}
	// seg-* sorts by ordinal; active.jsonl holds the newest records.
	sort.Slice(files, func(i, j int) bool {
		if (files[i] == activeFile) != (files[j] == activeFile) {
			return files[j] == activeFile
		}
		return files[i] < files[j]
	})
	ids, ends := map[string][]string{}, map[string][]int64{}
	for _, name := range files {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		end := int64(0)
		for sc.Scan() {
			var r Record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatal(err)
			}
			end += int64(len(sc.Bytes())) + 1
			ids[name] = append(ids[name], r.ID)
			ends[name] = append(ends[name], end)
		}
	}
	return written, files, ids, ends
}

// FuzzArchiveRecover truncates or overwrites bytes at any offset of one
// archive file and reopens the store. Recovery must not panic or fail;
// its disk accounting must match the files; each file must yield an
// intact prefix of its records, every record lying wholly before the
// damage among them; each Get must equal the record as written; IDs
// must rise strictly in append order; and the next Append must get an
// ID above every recovered one and survive a further reopen.
func FuzzArchiveRecover(f *testing.F) {
	f.Add(uint8(0), uint32(0), true, []byte(nil))
	f.Add(uint8(1), uint32(300), true, []byte(nil))
	f.Add(uint8(3), uint32(120), true, []byte(nil))
	f.Add(uint8(0), uint32(10), false, []byte("\n"))
	f.Add(uint8(2), uint32(230), false, []byte(`{"id":"a1"}`+"\n"))
	f.Add(uint8(3), uint32(1<<20), false, []byte("trailing garbage"))
	f.Fuzz(func(t *testing.T, file uint8, off uint32, truncate bool, data []byte) {
		dir := t.TempDir()
		written, files, ids, ends := fuzzStore(t, dir)
		victim := files[int(file)%len(files)]
		path := filepath.Join(dir, victim)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		cut := int64(off) % (fi.Size() + 1)
		if truncate {
			if err := os.Truncate(path, cut); err != nil {
				t.Fatal(err)
			}
		} else {
			fh, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fh.WriteAt(data, cut); err != nil {
				t.Fatal(err)
			}
			if err := fh.Close(); err != nil {
				t.Fatal(err)
			}
		}

		s := openTest(t, dir, Options{MaxSegmentBytes: 700})
		disk := int64(0)
		for _, name := range files {
			if fi, err := os.Stat(filepath.Join(dir, name)); err == nil {
				disk += fi.Size()
			}
		}
		if got := s.StoreStats().DiskBytes; got != disk {
			t.Fatalf("recovered accounting says %d bytes on disk, files hold %d", got, disk)
		}
		listed := s.List(Filter{})
		got := map[string]bool{}
		last := int64(0)
		for i := len(listed) - 1; i >= 0; i-- { // append order
			id := listed[i].ID
			if n := idSeq(id); n <= last {
				t.Fatalf("ID %s does not rise after a%d", id, last)
			} else {
				last = n
			}
			want, ok := written[id]
			if !ok {
				t.Fatalf("recovered %s, which was never written", id)
			}
			full, ok := s.Get(id)
			if !ok {
				t.Fatalf("listed %s, but Get misses it", id)
			}
			a, _ := json.Marshal(full)
			b, _ := json.Marshal(want)
			if !bytes.Equal(a, b) {
				t.Fatalf("Get %s:\n got %s\nwant %s", id, a, b)
			}
			got[id] = true
		}
		for _, name := range files {
			prefix := true
			for i, id := range ids[name] {
				intact := name != victim || ends[name][i] <= cut
				switch {
				case got[id] && !prefix:
					t.Fatalf("%s: %s recovered after a lost record", name, id)
				case !got[id] && intact:
					t.Fatalf("%s: undamaged record %s lost", name, id)
				}
				prefix = prefix && got[id]
			}
		}

		s.Append(rec("hash", "repair", 1, at(99)))
		next := s.List(Filter{Limit: 1})
		if len(next) != 1 || idSeq(next[0].ID) <= last {
			t.Fatalf("next append got %+v after a%d", next, last)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2 := openTest(t, dir, Options{MaxSegmentBytes: 700})
		if _, ok := s2.Get(next[0].ID); !ok {
			t.Fatalf("appended %s lost on reopen", next[0].ID)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
