// Package journal is the durable record behind vsd's job queue and the
// fabric coordinator's campaign table: an append-only file of JSON
// records, one per line, folded by its owner on replay and compacted to
// a snapshot of live state.
//
// A record is committed once its terminating newline is on disk.
// Replay drops an unterminated final line (an append torn by a crash)
// and a malformed final line, but a malformed line with anything after
// it is corruption, reported with the path and line number rather than
// skipped.
//
// Every append is flushed to the file. Commit also fsyncs, and owners
// use it only at their commit points (a shard result, a terminal job or
// campaign state). A snapshot is always durable: tmp file, flush,
// fsync, close, rename, directory fsync.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// ErrWrite wraps every error a Log write returns: a record that does
// not encode or is too large, a failed write or fsync, or a write to a
// closed Log.
var ErrWrite = errors.New("journal: write failed")

// MaxRecordBytes bounds one encoded record, its newline included.
// Replay reads lines up to this size, and every write — Append,
// Commit and the snapshots of Open and Rewrite — refuses a larger
// record, so a journal never holds a line its own replay cannot read.
const MaxRecordBytes = 64 << 20

// ErrTooLarge wraps ErrWrite for a record over MaxRecordBytes. Like an
// encode failure it never reaches the file and does not latch.
var ErrTooLarge = fmt.Errorf("%w: record over %d bytes", ErrWrite, MaxRecordBytes)

var errClosed = fmt.Errorf("%w: closed", ErrWrite)

// Log is an open journal of R records. Writes are serialized. A nil
// *Log is a valid no-op sink, so in-memory owners skip every
// durability branch. The first failed write or fsync latches: every
// later write, and Close, return it.
type Log[R any] struct {
	mu       sync.Mutex
	path     string
	f        *os.File // nil once closed
	appended int      // records written since Open or the last Rewrite
	err      error
}

// Open replaces the journal at path with snapshot, atomically and
// durably, and opens the result for appending.
func Open[R any](path string, snapshot []R) (*Log[R], error) {
	if err := writeSnapshot(path, snapshot); err != nil {
		return nil, err
	}
	f, err := openAppend(path)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	return &Log[R]{path: path, f: f}, nil
}

func openAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Append writes rec as one line, flushed to the file.
func (l *Log[R]) Append(rec R) error { return l.write(rec, false) }

// Commit appends rec and fsyncs, so it and every earlier record
// survive a machine crash.
func (l *Log[R]) Commit(rec R) error { return l.write(rec, true) }

func (l *Log[R]) write(rec R, sync bool) error {
	if l == nil {
		return nil
	}
	data, err := encode(rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	_, err = l.f.Write(data)
	if err == nil && sync {
		err = l.f.Sync()
	}
	if err != nil {
		l.err = fmt.Errorf("%w: %s: %w", ErrWrite, l.path, err)
		return l.err
	}
	l.appended++
	return nil
}

// encode renders rec as one journal line within MaxRecordBytes.
func encode[R any](rec R) ([]byte, error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("%w: encode: %w", ErrWrite, err)
	}
	if len(data)+1 > MaxRecordBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(data)+1)
	}
	return append(data, '\n'), nil
}

func (l *Log[R]) usable() error {
	if l.err != nil {
		return l.err
	}
	if l.f == nil {
		return errClosed
	}
	return nil
}

// Appended reports how many records were written since Open or the
// last successful Rewrite; owners compact once it grows large.
func (l *Log[R]) Appended() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// Rewrite atomically replaces the journal with snapshot and keeps
// appending to the new file. On error the old journal stays in place
// and appends continue there.
func (l *Log[R]) Rewrite(snapshot []R) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	err := writeSnapshot(l.path, snapshot)
	// Reopen whichever file now sits at path: the snapshot after a
	// rename, the old journal otherwise.
	l.f.Close()
	f, oerr := openAppend(l.path)
	if oerr != nil {
		l.f = nil
		l.err = fmt.Errorf("%w: reopen %s: %w", ErrWrite, l.path, oerr)
		return l.err
	}
	l.f = f
	if err == nil {
		l.appended = 0
	}
	return err
}

// Close closes the file and returns the latched write error, if any.
func (l *Log[R]) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.err
	}
	err := l.f.Close()
	l.f = nil
	if l.err != nil {
		return l.err
	}
	return err
}

// writeSnapshot replaces path with recs. Until the rename, any failure
// removes the tmp file and leaves the old journal untouched.
func writeSnapshot[R any](path string, recs []R) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	w := bufio.NewWriter(f)
	for i := range recs {
		var data []byte
		if data, err = encode(recs[i]); err == nil {
			_, err = w.Write(data)
		}
		if err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: snapshot %s: %w", path, err)
	}
	// The rename is durable only once the directory entry is.
	d, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("journal: snapshot %s: sync directory: %w", path, err)
	}
	return nil
}

// Replay decodes the journal at path into fold, one record per line in
// file order. A missing file is a fresh start. Blank lines are
// skipped; the torn-tail and corruption rules are in the package
// comment.
func Replay[R any](path string, fold func(R)) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: replay: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), MaxRecordBytes) // results and shards can be large lines
	torn := false
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i], nil
		}
		if atEOF && len(data) > 0 {
			torn = true
			return len(data), data, nil
		}
		return 0, nil, nil
	})
	var bad error // a malformed line, fatal once another line follows it
	for n := 1; sc.Scan(); n++ {
		if bad != nil {
			return bad
		}
		if torn {
			break
		}
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec R
		if err := json.Unmarshal(line, &rec); err != nil {
			bad = fmt.Errorf("journal: %s:%d: corrupt record: %w", path, n, err)
			continue
		}
		fold(rec)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("journal: replay %s: %w", path, err)
	}
	return nil
}
