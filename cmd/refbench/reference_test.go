package main

import (
	"os"
	"path/filepath"
	"testing"
)

// A rendered figure that differs from the reference by one byte is a
// failed op, on both paths that check figures: a sweep child's renders
// and a figure served by the daemon. A seed without a reference leaves
// the figure unverified rather than failed.
func TestFlippedFigureByteIsFailedOp(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("..", "..", "internal", "harness", "testdata", "golden", "fig10.txt"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), body...)
	flipped[len(flipped)/2] ^= 1
	ref := &reference{Figures: map[string]string{figureKey("fig10", 1): digest(body)}}

	journal := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(journal, []byte(`{"fingerprint":"x","entries":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	b := &bench{ref: ref}

	for _, tc := range []struct {
		name           string
		body           []byte
		seed           uint64
		wantFailed     int
		wantUnverified int
	}{
		{"intact", body, 1, 0, 0},
		{"one byte flipped", flipped, 1, 1, 0},
		{"no reference for the seed", flipped, 3, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sweep := ref.scoreSweep(&childResult{Figures: []figureRun{{Name: "fig10", SHA: digest(tc.body)}}}, tc.seed)
			if sweep.attempted != 1 || sweep.failed != tc.wantFailed || len(sweep.unverified) != tc.wantUnverified {
				t.Errorf("sweep: %d attempted, %d failed, %d unverified; want 1, %d, %d",
					sweep.attempted, sweep.failed, len(sweep.unverified), tc.wantFailed, tc.wantUnverified)
			}
			if tc.seed != daemonSeed {
				return // the daemon always renders at its own seed
			}
			p := &servePass{first: opResult{op: serveOp{figure: "fig10"}, ok: true, sha: digest(tc.body)}}
			if err := b.scoreServe(p, journal); err != nil {
				t.Fatal(err)
			}
			if p.attempted != 1 || p.failed != tc.wantFailed {
				t.Errorf("serve: %d attempted, %d failed; want 1, %d", p.attempted, p.failed, tc.wantFailed)
			}
		})
	}
}
