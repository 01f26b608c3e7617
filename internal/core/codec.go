package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"refsched/internal/journal"
)

// Snapshot file format: a fixed header followed by a gob body and
// guarded by a checksum, so a truncated, bit-flipped, or version-skewed
// file is refused with a typed error instead of restoring a subtly
// wrong machine.
//
//	offset size  field
//	0      4     magic "RSNP"
//	4      4     format version (little-endian uint32)
//	8      8     body length in bytes (little-endian uint64)
//	16     4     CRC-32C of the body (little-endian uint32)
//	20     n     gob-encoded SystemState

// SnapshotVersion is the current snapshot format version. Any change
// to the serialized layer states (new fields, reordered payload kinds,
// changed event semantics) must bump it: a snapshot is only meaningful
// against the exact simulator revision that wrote it, and the version
// gate turns silent divergence into a typed refusal.
//
// Version 2 stores the buddy allocator sparsely: the count of
// never-split max-order blocks plus the metadata of the blocks a run
// touched, instead of four arrays over every page frame.
//
// Version 3 stores each cache level as 32-bit tags plus one LRU-order
// word and valid and dirty masks per set, in place of per-line valid,
// dirty and stamp arrays and per-set counters, and drops the unused
// IssueAt and FinishAt of queued memory requests.
//
// Version 4 stores the page allocator as the one count of pages it has
// handed out (its frame order is fixed), in place of buddy free lists
// and the metadata of every split max-order block, and drops each
// task's unused scheduling weight.
const SnapshotVersion = 4

var snapshotMagic = [4]byte{'R', 'S', 'N', 'P'}

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// modern CPUs).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// CorruptSnapshotError reports a snapshot file that failed structural
// validation: bad magic, truncated body, checksum mismatch, or
// undecodable contents.
type CorruptSnapshotError struct {
	Path   string
	Reason string
}

// Error implements error.
func (e *CorruptSnapshotError) Error() string {
	return fmt.Sprintf("core: corrupt snapshot %s (delete it to start over): %s", e.Path, e.Reason)
}

// SnapshotVersionError reports a snapshot written by a different
// simulator revision. It is distinct from corruption: the file is
// intact but not resumable by this binary.
type SnapshotVersionError struct {
	Path string
	Got  uint32
	Want uint32
}

// Error implements error.
func (e *SnapshotVersionError) Error() string {
	return fmt.Sprintf("core: snapshot %s has format version %d, this binary reads %d (re-run from scratch)",
		e.Path, e.Got, e.Want)
}

// EncodeSnapshot writes st to w in the snapshot file format.
func EncodeSnapshot(w io.Writer, st *SystemState) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(st); err != nil {
		return fmt.Errorf("core: encoding snapshot: %w", err)
	}
	var hdr [20]byte
	copy(hdr[0:4], snapshotMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], SnapshotVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(body.Len()))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.Checksum(body.Bytes(), crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body.Bytes())
	return err
}

// DecodeSnapshot reads a snapshot from r. path is used only for error
// messages.
func DecodeSnapshot(r io.Reader, path string) (*SystemState, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, &CorruptSnapshotError{Path: path, Reason: "truncated header"}
	}
	if [4]byte(hdr[0:4]) != snapshotMagic {
		return nil, &CorruptSnapshotError{Path: path, Reason: "bad magic (not a snapshot file)"}
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != SnapshotVersion {
		return nil, &SnapshotVersionError{Path: path, Got: v, Want: SnapshotVersion}
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	const maxSnapshotBytes = 1 << 32
	if n > maxSnapshotBytes {
		return nil, &CorruptSnapshotError{Path: path, Reason: fmt.Sprintf("implausible body length %d", n)}
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, &CorruptSnapshotError{Path: path, Reason: "truncated body"}
	}
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(hdr[16:20]); got != want {
		return nil, &CorruptSnapshotError{Path: path,
			Reason: fmt.Sprintf("checksum mismatch (got %08x, want %08x)", got, want)}
	}
	st := new(SystemState)
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(st); err != nil {
		return nil, &CorruptSnapshotError{Path: path, Reason: fmt.Sprintf("undecodable body: %v", err)}
	}
	return st, nil
}

// WriteSnapshotFile writes st to path through journal.Replace (tmp +
// fsync + rename + directory fsync), so a crash mid-write leaves either
// the previous snapshot or none — never a torn file — and a crash right
// after the rename still finds the new one.
func WriteSnapshotFile(path string, st *SystemState) error {
	return journal.Replace(path, func(w io.Writer) error { return EncodeSnapshot(w, st) })
}

// ReadSnapshotFile reads a snapshot written by WriteSnapshotFile.
func ReadSnapshotFile(path string) (*SystemState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeSnapshot(f, path)
}
