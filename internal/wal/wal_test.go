package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// records opens the log at path and returns it with every replayed
// record.
func records(t *testing.T, path string) (*Log, [][]byte) {
	t.Helper()
	var recs [][]byte
	l, err := Open(path, func(_ int64, rec []byte) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

func equalRecords(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestAppendReadAtReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, recs := records(t, path)
	if len(recs) != 0 {
		t.Fatalf("missing file replayed %d records", len(recs))
	}
	want := [][]byte{[]byte("a"), nil, bytes.Repeat([]byte("c"), 300)}
	off0, err := l.Append(want[0], want[1])
	if err != nil {
		t.Fatal(err)
	}
	off2, err := l.Append(want[2])
	if err != nil {
		t.Fatal(err)
	}
	if off0 != 0 || off2 != 3 {
		t.Errorf("offsets %d, %d; want 0, 3", off0, off2)
	}
	for i, off := range []int64{off0, 2, off2} {
		got, err := l.ReadAt(off)
		if err != nil || !bytes.Equal(got, want[i]) {
			t.Errorf("ReadAt(%d) = %q, %v; want %q", off, got, err, want[i])
		}
	}
	if _, err := l.ReadAt(fileSize(t, path)); err == nil {
		t.Error("ReadAt past the end succeeded")
	}
	l.Close()
	if _, err := l.ReadAt(0); !errors.Is(err, os.ErrClosed) {
		t.Errorf("ReadAt after Close = %v, want os.ErrClosed", err)
	}

	r, got := records(t, path)
	defer r.Close()
	if !equalRecords(got, want) {
		t.Errorf("reopen replayed %q, want %q", got, want)
	}
	if off, err := r.Append([]byte("d")); err != nil || off != fileSize(t, path)-2 {
		t.Errorf("Append after reopen at %d, %v", off, err)
	}
}

// TestOpenTruncatesTornTail covers both kinds of torn frame — a length
// that runs past the end, and one no uint64 holds — and a record the
// replay callback rejects.
func TestOpenTruncatesTornTail(t *testing.T) {
	good := frame(nil, [][]byte{[]byte("ok"), []byte("fine")})
	huge := append(binary.AppendUvarint(nil, math.MaxUint64), 1, 2, 3)
	for name, tail := range map[string][]byte{
		"short":    {5, 'a', 'b'},
		"huge":     huge,
		"overflow": bytes.Repeat([]byte{0xff}, 11),
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.log")
			if err := os.WriteFile(path, append(append([]byte(nil), good...), tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			l, recs := records(t, path)
			defer l.Close()
			if len(recs) != 2 || fileSize(t, path) != int64(len(good)) {
				t.Fatalf("replayed %q, file %d bytes; want 2 records, %d bytes", recs, fileSize(t, path), len(good))
			}
		})
	}

	path := filepath.Join(t.TempDir(), "x.log")
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(path, func(off int64, _ []byte) error {
		if off > 0 {
			return ErrCorrupt
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got := fileSize(t, path); got != 3 {
		t.Errorf("rejected record left %d bytes, want 3", got)
	}
	boom := errors.New("boom")
	if _, err := Open(path, func(int64, []byte) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("Open = %v, want the replay error", err)
	}
	if got := fileSize(t, path); got != 3 {
		t.Errorf("failed Open changed the file to %d bytes", got)
	}
}

// TestRewriteAfterCrashMidRewrite: a crash between writing the temp
// file and renaming it leaves the old log and a stale temp file. The
// log reopens to its old records, and the next Rewrite replaces both.
func TestRewriteAfterCrashMidRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.log")
	l, _ := records(t, path)
	if _, err := l.Append([]byte("a"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := os.WriteFile(path+".tmp", frame(nil, [][]byte{[]byte("half")}), 0o644); err != nil {
		t.Fatal(err)
	}

	r, recs := records(t, path)
	if !equalRecords(recs, [][]byte{[]byte("a"), []byte("b")}) {
		t.Fatalf("reopened to %q", recs)
	}
	if err := r.Rewrite([]byte("z")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp file left after Rewrite: %v", err)
	}
	if off, err := r.Append([]byte("y")); err != nil || off != 2 {
		t.Errorf("Append after Rewrite at %d, %v; want 2", off, err)
	}
	if got, err := r.ReadAt(2); err != nil || string(got) != "y" {
		t.Errorf("ReadAt(2) = %q, %v", got, err)
	}
	r.Close()
	r, recs = records(t, path)
	r.Close()
	if !equalRecords(recs, [][]byte{[]byte("z"), []byte("y")}) {
		t.Errorf("after Rewrite replayed %q", recs)
	}
}

func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob")
	for _, data := range []string{"first", "second"} {
		if err := WriteFile(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != data {
			t.Errorf("read back %q, %v; want %q", got, err, data)
		}
	}
	if err := WriteFile(filepath.Join(path, "under-a-file"), nil); err == nil {
		t.Error("WriteFile under a regular file succeeded")
	}
}

// FuzzOpen opens arbitrary bytes as a log. Open must not panic; it must
// replay exactly the longest prefix of whole frames, truncate the file
// to it, and a second Open must replay the same records.
func FuzzOpen(f *testing.F) {
	f.Add(frame(nil, [][]byte{[]byte("a"), nil, []byte("ccc")}))
	f.Add(append(binary.AppendUvarint(nil, math.MaxUint64), 1, 2, 3))
	f.Fuzz(func(t *testing.T, b []byte) {
		path := filepath.Join(t.TempDir(), "x.log")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs := records(t, path)
		l.Close()
		var want [][]byte
		end := 0
		for end < len(b) {
			n, k := binary.Uvarint(b[end:])
			if k <= 0 || n > uint64(len(b)-end-k) {
				break
			}
			want = append(want, b[end+k:end+k+int(n)])
			end += k + int(n)
		}
		if !equalRecords(recs, want) {
			t.Fatalf("replayed %d records, want the %d whole frames of the prefix", len(recs), len(want))
		}
		if got := fileSize(t, path); got != int64(end) {
			t.Fatalf("file is %d bytes, want %d", got, end)
		}
		r, again := records(t, path)
		r.Close()
		if !equalRecords(recs, again) {
			t.Fatalf("second Open replayed %d records, first %d", len(again), len(recs))
		}
	})
}
