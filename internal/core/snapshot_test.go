package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"refsched/internal/config"
	"refsched/internal/sim"
)

func reportBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// referenceRun executes the cell without any checkpointing.
func referenceRun(t *testing.T, cfg config.System, warmup, measure uint64) []byte {
	t.Helper()
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	return reportBytes(t, rep)
}

// eager adapts a callback that wants every snapshot to the lazy
// BoundaryFn protocol: capture at every boundary, then hand it over.
func eager(fn func(st *SystemState) error) BoundaryFn {
	return func(capture func() (*SystemState, error)) error {
		st, err := capture()
		if err != nil {
			return err
		}
		return fn(st)
	}
}

// codecRoundTrip pushes st through the file format and back.
func codecRoundTrip(t *testing.T, st *SystemState) *SystemState {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, st); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()), "mem")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckpointResumeByteIdentical is the contract test for the whole
// snapshot stack: a run that checkpoints periodically produces the
// byte-identical report of an uncheckpointed run, and resuming from any
// checkpoint — including ones taken mid-quantum and mid-refresh — again
// produces the byte-identical report. Both the refresh-oblivious
// baseline and the full co-design machine (CFS + refresh-aware
// scheduling + per-bank-sequenced refresh) are covered.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		cfg  config.System
	}{
		{"baseline-allbank-32gb", testConfig(config.Density32Gb, config.RefreshAllBank)},
		{"codesign-perbankseq", func() config.System {
			cfg := testConfig(config.Density8Gb, config.RefreshPerBankSeq)
			cfg.OS.Alloc = config.AllocSoftPartition
			cfg.OS.Scheduler = config.SchedCFS
			cfg.OS.RefreshAware = true
			return cfg
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			w := cfg.TREFW()
			warmup, measure := w, 2*w
			ref := referenceRun(t, cfg, warmup, measure)

			sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			// Misaligned with both the quantum grid and the refresh
			// cadence, so checkpoints land mid-quantum (and, with
			// enough samples, mid-refresh).
			every := cfg.Timeslice() + cfg.Timeslice()/3 + 7
			var snaps []*SystemState
			rep, err := sys.RunCheckpointed(warmup, measure, every, eager(func(st *SystemState) error {
				snaps = append(snaps, st)
				return nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			if got := reportBytes(t, rep); !bytes.Equal(got, ref) {
				t.Fatalf("checkpointed run diverged from reference:\n%s\nvs\n%s", got, ref)
			}
			if len(snaps) < 3 {
				t.Fatalf("only %d checkpoints taken", len(snaps))
			}

			// Classify snapshots: mid-quantum (a core is executing a
			// task) and mid-refresh (a bank's refresh end lies in the
			// future).
			midQuantum, midRefresh := -1, -1
			for i, st := range snaps {
				cyc := sim.Time(st.Cycle())
				for _, c := range st.Cores {
					if c.TaskID >= 0 && !c.Idle && midQuantum < 0 {
						midQuantum = i
					}
				}
				for _, ch := range st.Chans {
					for _, b := range ch.Banks {
						if b.RefUntil > cyc && midRefresh < 0 {
							midRefresh = i
						}
					}
				}
			}
			if midQuantum < 0 {
				t.Fatal("no checkpoint caught a core mid-quantum")
			}
			if midRefresh < 0 {
				t.Fatal("no checkpoint caught a bank mid-refresh")
			}

			resume := func(i int) {
				st := codecRoundTrip(t, snaps[i])
				rsys, err := Restore(st, Options{})
				if err != nil {
					t.Fatal(err)
				}
				rrep, err := rsys.Resume(0, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := reportBytes(t, rrep); !bytes.Equal(got, ref) {
					t.Fatalf("resume from checkpoint %d (cycle %d) diverged:\n%s\nvs\n%s",
						i, snaps[i].Cycle(), got, ref)
				}
			}
			resume(midQuantum)
			resume(midRefresh)
			resume(len(snaps) - 1)
		})
	}
}

// TestFirstSnapshotIsSparse: the page allocator snapshots as one count
// and the page tables and per-bank stashes hold only the memory a cell
// touched, so the first checkpoint of the 32 Gb cell of
// TestCheckpointResumeByteIdentical (8M page frames) stays small.
func TestFirstSnapshotIsSparse(t *testing.T) {
	cfg := testConfig(config.Density32Gb, config.RefreshAllBank)
	w := cfg.TREFW()
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	errFirst := errors.New("first snapshot taken")
	var buf bytes.Buffer
	_, err = sys.RunCheckpointed(w, 2*w, cfg.Timeslice()+cfg.Timeslice()/3+7, eager(func(st *SystemState) error {
		if err := EncodeSnapshot(&buf, st); err != nil {
			return err
		}
		return errFirst
	}))
	if !errors.Is(err, errFirst) {
		t.Fatalf("run ended with %v, want it stopped at the first checkpoint", err)
	}
	if buf.Len() >= 1<<20 {
		t.Fatalf("first snapshot is %d bytes, want < 1 MB", buf.Len())
	}
	t.Logf("first snapshot: %d bytes", buf.Len())
}

// TestResumeWithFurtherCheckpoints resumes from an early snapshot while
// emitting new checkpoints, then resumes from one of those — the
// preemption pattern refschedd uses (a job may be preempted repeatedly).
func TestResumeWithFurtherCheckpoints(t *testing.T) {
	cfg := testConfig(config.Density8Gb, config.RefreshAllBank)
	w := cfg.TREFW()
	warmup, measure := w, 2*w
	ref := referenceRun(t, cfg, warmup, measure)

	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	every := cfg.Timeslice()*2 + 13
	var first *SystemState
	_, err = sys.RunCheckpointed(warmup, measure, every, eager(func(st *SystemState) error {
		if first == nil {
			first = st
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}

	rsys, err := Restore(first, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var later *SystemState
	_, err = rsys.Resume(every, eager(func(st *SystemState) error {
		later = st
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if later == nil {
		t.Fatal("resumed run emitted no checkpoints")
	}
	r2, err := Restore(later, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r2.Resume(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(t, rep); !bytes.Equal(got, ref) {
		t.Fatalf("twice-resumed run diverged:\n%s\nvs\n%s", got, ref)
	}
}

// TestSnapshotRefusals covers the typed refusal path: attached
// observers cannot checkpoint.
func TestSnapshotRefusals(t *testing.T) {
	sys, err := Build(testConfig(config.Density8Gb, config.RefreshAllBank), testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AttachTimeline(io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunCheckpointed(0, 1000, 100, eager(func(*SystemState) error { return nil })); err == nil {
		t.Fatal("checkpointing with a timeline attached must fail")
	}
}

func writeTestSnapshot(t *testing.T) (string, []byte) {
	t.Helper()
	cfg := testConfig(config.Density8Gb, config.RefreshAllBank)
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	var snap *SystemState
	every := cfg.Timeslice()
	_, err = sys.RunCheckpointed(0, 4*every, every, eager(func(st *SystemState) error {
		if snap == nil {
			snap = st
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cell.snap")
	if err := WriteSnapshotFile(path, snap); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestSnapshotCorruptionRefused proves the codec refuses damaged files
// with typed errors rather than restoring a subtly wrong machine:
// truncation, bit flips, version skew, and wrong magic each produce the
// right error type.
func TestSnapshotCorruptionRefused(t *testing.T) {
	path, data := writeTestSnapshot(t)

	if _, err := ReadSnapshotFile(path); err != nil {
		t.Fatalf("pristine snapshot refused: %v", err)
	}

	rewrite := func(b []byte) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var corrupt *CorruptSnapshotError
	var skew *SnapshotVersionError

	// Truncated mid-body.
	rewrite(data[:len(data)/2])
	if _, err := ReadSnapshotFile(path); !errors.As(err, &corrupt) {
		t.Fatalf("truncated: err = %v, want CorruptSnapshotError", err)
	}
	// Truncated mid-header.
	rewrite(data[:10])
	if _, err := ReadSnapshotFile(path); !errors.As(err, &corrupt) {
		t.Fatalf("short header: err = %v, want CorruptSnapshotError", err)
	}
	// Single bit flip in the body.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	rewrite(flipped)
	if _, err := ReadSnapshotFile(path); !errors.As(err, &corrupt) {
		t.Fatalf("bit flip: err = %v, want CorruptSnapshotError", err)
	}
	// Version skew, forward and back to version 1 (dense allocator
	// state).
	for _, v := range []byte{SnapshotVersion + 1, 1} {
		skewed := append([]byte(nil), data...)
		skewed[4] = v
		rewrite(skewed)
		if _, err := ReadSnapshotFile(path); !errors.As(err, &skew) || skew.Got != uint32(v) {
			t.Fatalf("version %d: err = %v, want SnapshotVersionError", v, err)
		}
	}
	// Wrong magic.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	rewrite(bad)
	if _, err := ReadSnapshotFile(path); !errors.As(err, &corrupt) {
		t.Fatalf("bad magic: err = %v, want CorruptSnapshotError", err)
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the decoder: it must
// return an error or a state, never panic. The corpus seeds a valid
// snapshot so mutations explore the gob body, not just the header.
func FuzzDecodeSnapshot(f *testing.F) {
	cfg := testConfig(config.Density8Gb, config.RefreshAllBank)
	sys, err := Build(cfg, testMix(), Options{FootprintScale: 0.01})
	if err != nil {
		f.Fatal(err)
	}
	var snap *SystemState
	every := cfg.Timeslice()
	if _, err := sys.RunCheckpointed(0, 2*every, every, eager(func(st *SystemState) error {
		if snap == nil {
			snap = st
		}
		return nil
	})); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("RSNP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeSnapshot(bytes.NewReader(data), "fuzz")
		if err == nil && st == nil {
			t.Fatal("nil state with nil error")
		}
	})
}
