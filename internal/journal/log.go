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
	"sync/atomic"
	"syscall"
)

// replay reads the file at path as a stream of JSON values and hands
// each complete value to fn, in file order; an absent file is empty.
// Every append is one line, so a kill or power cut mid-append leaves at
// most one unfinished line (or zero-filled bytes) after the last whole
// value: replay drops that torn final value and reports torn, after
// delivering every value before it. end is the offset just past the
// last whole value and the newline after it, where a torn tail starts.
// Any other damage — bytes that do not parse followed by more lines,
// or a value fn rejects — is refused with an error naming the recovery
// action, since resuming past it would silently lose what the damaged
// span held.
func replay(path string, fn func(raw json.RawMessage) error) (end int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("journal: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		at := dec.InputOffset()
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			return end, false, nil
		} else if err != nil {
			if !bytes.ContainsRune(bytes.TrimSpace(data[at:]), '\n') {
				return end, true, nil
			}
			return 0, false, damaged(path, at, err)
		}
		if err := fn(raw); err != nil {
			return 0, false, damaged(path, at, err)
		}
		if end = dec.InputOffset(); end < int64(len(data)) && data[end] == '\n' {
			end++
		}
	}
}

func damaged(path string, at int64, err error) error {
	return fmt.Errorf("journal: damaged %s at byte %d (delete it to start over): %w", path, at, err)
}

// Replace atomically replaces the file at path with what write
// produces: a temporary file in the same directory is written,
// fsynced and renamed over path, and then the directory is fsynced so
// the rename survives a crash too. A crash at any instant leaves the
// old file or the new one, never a mix. The new file keeps the mode of
// the one it replaces; where there was none, it gets 0644 less the
// umask, as a journal's appends would create it.
func Replace(path string, write func(w io.Writer) error) error {
	old, statErr := os.Stat(path)
	tmp, err := createTemp(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if statErr == nil {
		err = tmp.Chmod(old.Mode().Perm())
	}
	bw := bufio.NewWriter(tmp)
	if err == nil {
		err = write(bw)
	}
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
	dir := filepath.Dir(path)
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

// tmpSeq numbers the temporary files of this process's Replace calls.
var tmpSeq atomic.Uint64

// createTemp creates a file beside path for Replace to fill. Unlike
// os.CreateTemp, which creates its file with mode 0600, it creates it
// the way OpenFile creates a journal: 0644 less the umask.
func createTemp(path string) (*os.File, error) {
	for {
		name := fmt.Sprintf("%s.tmp%d.%d", path, os.Getpid(), tmpSeq.Add(1))
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
	}
}
