package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"refsched/internal/core"
	"refsched/internal/harness"
	"refsched/internal/runner"
)

// referenceJSON is testdata/reference.json, compiled in so the
// benchmark checks outputs wherever it runs.
//
//go:embed testdata/reference.json
var referenceJSON []byte

// reference holds the sha256 of every output the benchmark checks, at
// the quick parameters: every rendered figure of the sweep workloads,
// every cell report of their sweeps, and every single-cell job the
// serve workload can post. An output with no entry is reported as
// unverified.
type reference struct {
	// Figures maps "<figure>|<seed>" to the digest of the figure as
	// cmd/experiments prints it; refschedd must serve the same bytes.
	Figures map[string]string `json:"figures"`
	// Cells maps cellKey to the digest of the cell's report as
	// refschedd stores a single-cell job's result.
	Cells map[string]string `json:"cells"`
}

func loadReference() (*reference, error) {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("testdata/reference.json: %w", err)
	}
	return &r, nil
}

func figureKey(name string, seed uint64) string { return fmt.Sprintf("%s|%d", name, seed) }

// cellKey names a cell by the figure sweep that ran it (figure "cell"
// for a single-cell job) and its coordinates: mix|density|bundle|seed,
// with "|hot" for the high-temperature variant.
func cellKey(figure string, c runner.Cell) string {
	k := fmt.Sprintf("%s|%s|%s|%s|%d", figure, c.Mix, c.Density, c.Bundle, c.Seed)
	if c.Hot {
		k += "|hot"
	}
	return k
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// reportBytes encodes a cell report exactly as refschedd stores a
// single-cell job's result.
func reportBytes(rep *core.Report) ([]byte, error) {
	raw, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// tally counts a workload's ops and failed ops, and lists the outputs
// it could not verify for lack of a reference hash. failures says why
// each failed op failed.
type tally struct {
	attempted, failed int
	failures          []string
	unverified        []string
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.failures = append(t.failures, o.failures...)
	t.unverified = append(t.unverified, o.unverified...)
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
}

// check compares one output's digest with the reference table. A
// mismatch fails the op; a missing entry leaves it unverified, so only
// execution failures can fail it.
func (t *tally) check(table map[string]string, key, sha string) {
	want, ok := table[key]
	switch {
	case !ok:
		t.unverified = append(t.unverified, key+" sha256="+sha)
	case want != sha:
		t.fail("%s: sha256 %s, reference %s", key, sha, want)
	}
}

// scoreSweep counts one sweep pass's ops: every figure and every cell
// is one. A figure whose sweep errored, a quarantined cell, and an
// output whose digest differs from the reference each fail their op.
func (r *reference) scoreSweep(res *childResult, seed uint64) tally {
	var t tally
	for _, f := range res.Figures {
		t.attempted += 1 + f.Quarantined
		for i := 0; i < f.Quarantined; i++ {
			t.fail("%s: a cell was quarantined", f.Name)
		}
		if f.Err != "" {
			t.fail("%s: %s", f.Name, f.Err)
			continue
		}
		t.check(r.Figures, figureKey(f.Name, seed), f.SHA)
	}
	for _, c := range res.Cells {
		t.attempted++
		t.check(r.Cells, c.Key, c.SHA)
	}
	return t
}

// updateReference regenerates testdata/reference.json: the sweep
// workloads, through the same child processes the benchmark times, and
// every single-cell job the serve workload can post, simulated in this
// process through harness.RunCell.
func (b *bench) updateReference(ctx context.Context, path string) error {
	ref := &reference{Figures: map[string]string{}, Cells: map[string]string{}}
	for _, w := range workloads {
		if w.figures == nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "reference: %s\n", w.name)
		res, _, err := b.runChild(ctx, childSpec{Workload: w.name, Figures: w.figures, Params: b.params, Seed: sweepSeed})
		if err != nil {
			return err
		}
		for _, f := range res.Figures {
			if f.Err != "" || f.Quarantined > 0 {
				return fmt.Errorf("reference: %s did not complete cleanly: %s", f.Name, f.Err)
			}
			ref.Figures[figureKey(f.Name, sweepSeed)] = f.SHA
		}
		for _, c := range res.Cells {
			if _, dup := ref.Cells[c.Key]; dup {
				return fmt.Errorf("reference: cell key %s names two cells", c.Key)
			}
			ref.Cells[c.Key] = c.SHA
		}
	}
	fmt.Fprintf(os.Stderr, "reference: serve cells\n")
	for _, c := range serveCells(b.params.Mixes) {
		sha, err := b.cellDigest(c)
		if err != nil {
			return err
		}
		ref.Cells[cellKey("cell", c)] = sha
	}
	out, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "reference: wrote %s (%d figures, %d cells)\n", path, len(ref.Figures), len(ref.Cells))
	return nil
}

// cellDigest simulates one single-cell job in this process, as the
// daemon would with the job's seed override, and digests its report.
func (b *bench) cellDigest(c runner.Cell) (string, error) {
	rep, err := harness.RunCell(b.params.at(c.Seed), c.Mix, c.Density, c.Bundle, false)
	if err != nil {
		return "", fmt.Errorf("cell %s: %w", cellKey("cell", c), err)
	}
	body, err := reportBytes(rep)
	if err != nil {
		return "", err
	}
	return digest(body), nil
}

// referencePath finds testdata/reference.json from the repository root
// or from this package's directory.
func referencePath() string {
	for _, dir := range []string{filepath.Join("cmd", "refbench"), "."} {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, "testdata", "reference.json")
		}
	}
	return filepath.Join("testdata", "reference.json")
}
