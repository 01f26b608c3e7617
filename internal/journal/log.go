package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"syscall"
)

// Replay reads the file at path as a stream of JSON values and hands
// each complete value to fn, in file order; an absent file is empty.
// Every append is one line, so a kill or power cut mid-append leaves at
// most one unfinished line (or zero-filled bytes) after the last whole
// value: Replay drops that torn final value and reports torn, after
// delivering every value before it. Any other damage — bytes that do
// not parse followed by more lines, or a value fn rejects — is refused
// with an error naming the recovery action, since resuming past it
// would silently lose what the damaged span held.
func Replay(path string, fn func(raw json.RawMessage) error) (torn bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("journal: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		at := dec.InputOffset()
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			return false, nil
		} else if err != nil {
			if !bytes.ContainsRune(bytes.TrimSpace(data[at:]), '\n') {
				return true, nil
			}
			return false, damaged(path, at, err)
		}
		if err := fn(raw); err != nil {
			return false, damaged(path, at, err)
		}
	}
}

func damaged(path string, at int64, err error) error {
	return fmt.Errorf("journal: damaged %s at byte %d (delete it to start over): %w", path, at, err)
}

// Log appends JSON values to a file, one per line. It is safe for
// concurrent use.
type Log struct {
	mu sync.Mutex // keeps each line one write, in order
	f  *os.File
}

// OpenLog opens path for appending, creating it if absent.
func OpenLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Log{f: f}, nil
}

// Append writes v as one line in a single write. With sync it returns
// only once the line is on stable storage; without, a crash may lose
// or tear the line, which Replay tolerates as the final value.
func (l *Log) Append(v any, sync bool) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	return nil
}

// Close closes the file; later appends fail.
func (l *Log) Close() error { return l.f.Close() }

// Replace atomically replaces the file at path with what write
// produces: a temporary file in the same directory is written,
// fsynced and renamed over path, and then the directory is fsynced so
// the rename survives a crash too. A crash at any instant leaves the
// old file or the new one, never a mix.
func Replace(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriter(tmp)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("journal: replacing %s: %w", path, err)
	}
	// Filesystems that cannot fsync a directory (some network or overlay
	// mounts return EINVAL) degrade to the rename-only guarantee.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("journal: syncing %s: %w", dir, err)
	}
	return nil
}
