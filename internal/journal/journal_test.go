package journal

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

type rec struct {
	Op string  `json:"op"`
	N  int     `json:"n,omitempty"`
	S  string  `json:"s,omitempty"`
	F  float64 `json:"f,omitempty"`
}

func replayAll(t *testing.T, path string) []rec {
	t.Helper()
	var got []rec
	if err := Replay(path, func(r rec) { got = append(got, r) }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestLogAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	l, err := Open(path, []rec{{Op: "snap", N: 1}})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Append(rec{Op: "a", N: 2}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Commit(rec{Op: "c", N: 3}); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if n := l.Appended(); n != 2 {
		t.Errorf("Appended = %d, want 2 (the snapshot does not count)", n)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	want := []rec{{Op: "snap", N: 1}, {Op: "a", N: 2}, {Op: "c", N: 3}}
	if got := replayAll(t, path); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed %v, want %v", got, want)
	}
	if err := l.Append(rec{Op: "late"}); !errors.Is(err, ErrWrite) {
		t.Errorf("append after close: err %v, want ErrWrite", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestLogNilIsNoop(t *testing.T) {
	var l *Log[rec]
	if err := l.Append(rec{Op: "a"}); err != nil {
		t.Errorf("nil append: %v", err)
	}
	if err := l.Commit(rec{Op: "a"}); err != nil {
		t.Errorf("nil commit: %v", err)
	}
	if err := l.Rewrite(nil); err != nil {
		t.Errorf("nil rewrite: %v", err)
	}
	if n := l.Appended(); n != 0 {
		t.Errorf("nil Appended = %d", n)
	}
	if err := l.Close(); err != nil {
		t.Errorf("nil close: %v", err)
	}
}

// TestLogWriteErrorLatches closes the file underneath the Log: the
// failed write reaches the caller, every later write fails with the
// same error, and Close returns it.
func TestLogWriteErrorLatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	l, err := Open[rec](path, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Append(rec{Op: "ok"}); err != nil {
		t.Fatalf("append: %v", err)
	}
	l.f.Close()
	first := l.Append(rec{Op: "lost"})
	if !errors.Is(first, ErrWrite) {
		t.Fatalf("append to a closed file: err %v, want ErrWrite", first)
	}
	if err := l.Commit(rec{Op: "lost"}); err != first {
		t.Errorf("later commit: err %v, want the latched %v", err, first)
	}
	if err := l.Rewrite([]rec{{Op: "snap"}}); err != first {
		t.Errorf("rewrite after failure: err %v, want the latched %v", err, first)
	}
	if n := l.Appended(); n != 1 {
		t.Errorf("Appended = %d, want 1", n)
	}
	if err := l.Close(); err != first {
		t.Errorf("close: err %v, want the latched %v", err, first)
	}
	if got := replayAll(t, path); !reflect.DeepEqual(got, []rec{{Op: "ok"}}) {
		t.Errorf("replayed %v, want only the record written before the failure", got)
	}
}

// TestLogEncodeErrorDoesNotLatch: a record that does not encode never
// reaches the file, so the Log stays usable.
func TestLogEncodeErrorDoesNotLatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	l, err := Open[rec](path, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	if err := l.Append(rec{Op: "nan", F: math.NaN()}); !errors.Is(err, ErrWrite) {
		t.Fatalf("unencodable append: err %v, want ErrWrite", err)
	}
	if err := l.Append(rec{Op: "ok"}); err != nil {
		t.Fatalf("append after encode error: %v", err)
	}
	if got := replayAll(t, path); !reflect.DeepEqual(got, []rec{{Op: "ok"}}) {
		t.Errorf("replayed %v", got)
	}
}

// TestLogRefusesOversizeRecord: a record over the replay limit is
// refused without latching, so the journal stays appendable and still
// replays. Writing it would leave a line Replay cannot read, and the
// owner could never restart on the journal again.
func TestLogRefusesOversizeRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	l, err := Open(path, []rec{{Op: "snap"}})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	huge := rec{Op: "huge", S: strings.Repeat("x", 65<<20)}
	if err := l.Append(huge); !errors.Is(err, ErrWrite) {
		t.Fatalf("65 MiB append: err %v, want ErrWrite", err)
	}
	if err := l.Commit(rec{Op: "ok"}); err != nil {
		t.Fatalf("commit after oversize append: %v", err)
	}
	want := []rec{{Op: "snap"}, {Op: "ok"}}
	if got := replayAll(t, path); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed %v, want %v", got, want)
	}
	// A snapshot carrying the record is refused too, keeping the old
	// journal.
	if err := l.Rewrite([]rec{huge}); err == nil {
		t.Fatal("rewrite with a 65 MiB record succeeded")
	}
	if got := replayAll(t, path); !reflect.DeepEqual(got, want) {
		t.Errorf("after refused rewrite, replayed %v, want %v", got, want)
	}
}

func TestReplayTornTailAndCorruption(t *testing.T) {
	for _, tc := range []struct {
		name, data string
		want       []rec
		errLine    string // non-empty: replay must fail naming this line
	}{
		{name: "missing newline drops a valid tail", data: "{\"op\":\"a\"}\n{\"op\":\"b\"}", want: []rec{{Op: "a"}}},
		{name: "torn tail", data: "{\"op\":\"a\"}\n{\"op\":\"b\",\"n", want: []rec{{Op: "a"}}},
		{name: "malformed final line", data: "{\"op\":\"a\"}\n{\"op\":\n", want: []rec{{Op: "a"}}},
		{name: "blank lines", data: "\n{\"op\":\"a\"}\n\n  \n", want: []rec{{Op: "a"}}},
		{name: "garbage mid-file", data: "{\"op\":\"a\"}\ngarbage\n{\"op\":\"b\"}\n", errLine: ":2:"},
		{name: "garbage before a torn tail", data: "garbage\n{\"op\":\"b\"", errLine: ":1:"},
		{name: "garbage before a blank line", data: "{\"op\":\"a\"}\n{]\n\n", errLine: ":2:"},
		{name: "wrong shape mid-file", data: "[1]\n{\"op\":\"a\"}\n", errLine: ":1:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j")
			if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
				t.Fatal(err)
			}
			var got []rec
			err := Replay(path, func(r rec) { got = append(got, r) })
			if tc.errLine != "" {
				if err == nil || !strings.Contains(err.Error(), path+tc.errLine) {
					t.Fatalf("replay err %v, want corruption at %s%s", err, path, tc.errLine)
				}
				return
			}
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("replayed %v, want %v", got, tc.want)
			}
		})
	}
}

func TestReplayMissingFile(t *testing.T) {
	called := false
	if err := Replay(filepath.Join(t.TempDir(), "absent"), func(rec) { called = true }); err != nil || called {
		t.Fatalf("missing journal: err %v, fold called %v; want a fresh start", err, called)
	}
}

// TestRewriteKeepsOldOnError: a snapshot record that cannot be encoded
// fails the compaction — at Open and on a live Log — and leaves the
// old journal untouched, instead of renaming a truncated snapshot over
// it. The live Log keeps appending to the old journal, and the next
// good rewrite replaces it.
func TestRewriteKeepsOldOnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	old := []byte("{\"op\":\"old\"}\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := []rec{{Op: "good"}, {Op: "nan", F: math.NaN()}}
	requireOld := func(stage string, want []byte) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: read journal: %v", stage, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: failed compaction replaced the journal:\n%s", stage, got)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Errorf("%s: failed compaction left its snapshot behind (stat err %v)", stage, err)
		}
	}

	if _, err := Open(path, bad); err == nil {
		t.Fatal("Open with an unencodable snapshot reported success")
	}
	requireOld("open", old)

	l, err := Open(path, []rec{{Op: "old"}})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	if err := l.Append(rec{Op: "a"}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Rewrite(bad); err == nil {
		t.Fatal("Rewrite with an unencodable snapshot reported success")
	}
	withA := append(append([]byte(nil), old...), "{\"op\":\"a\"}\n"...)
	requireOld("rewrite", withA)
	if n := l.Appended(); n != 1 {
		t.Errorf("Appended after a failed rewrite = %d, want 1", n)
	}
	if err := l.Append(rec{Op: "b"}); err != nil {
		t.Fatalf("append after a failed rewrite: %v", err)
	}
	requireOld("append", append(withA, "{\"op\":\"b\"}\n"...))

	if err := l.Rewrite([]rec{{Op: "snap"}}); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if n := l.Appended(); n != 0 {
		t.Errorf("Appended after a rewrite = %d, want 0", n)
	}
	if err := l.Append(rec{Op: "c"}); err != nil {
		t.Fatalf("append after rewrite: %v", err)
	}
	if got, want := replayAll(t, path), []rec{{Op: "snap"}, {Op: "c"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("replayed %v, want %v", got, want)
	}
}

// FuzzReplay: arbitrary bytes either replay or return an error, never
// panic; and a valid journal written through a Log, cut at any byte,
// replays to a prefix of its records.
func FuzzReplay(f *testing.F) {
	f.Add([]byte("{\"op\":\"a\",\"n\":1}\n{\"op\":\"b\"}\n"), uint16(5))
	f.Add([]byte("{\"op\":\"a\"}\ngarbage\n{\"op\":\"b\"}"), uint16(0))
	f.Add([]byte("\n\n{]\n"), uint16(100))
	f.Add([]byte("plain bytes, \xff\xfe not utf-8"), uint16(17))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		dir := t.TempDir()
		raw := filepath.Join(dir, "raw")
		if err := os.WriteFile(raw, data, 0o644); err != nil {
			t.Fatal(err)
		}
		Replay(raw, func(rec) {})

		// Records derived from the input, one per field.
		path := filepath.Join(dir, "valid")
		l, err := Open[rec](path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, field := range bytes.Fields(data) {
			if err := l.Append(rec{Op: "f", N: i, S: string(field)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		full := replayAll(t, path)
		if len(full) != len(bytes.Fields(data)) {
			t.Fatalf("replayed %d of %d records", len(full), len(bytes.Fields(data)))
		}
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n := int(cut) % (len(whole) + 1)
		if err := os.WriteFile(path, whole[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		got := replayAll(t, path)
		if len(got) > len(full) || (len(got) > 0 && !reflect.DeepEqual(got, full[:len(got)])) {
			t.Fatalf("journal cut at byte %d replayed %v, not a prefix of %v", n, got, full)
		}
	})
}
