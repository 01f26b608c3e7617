package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"refsched/internal/config"
	"refsched/internal/core"
)

// quickCells are cells at QuickParams whose controller queues fill: the
// golden figures run at scale 4096 with footprint 0.01, where queues
// stay too shallow for an issue-engine error to show. Together they
// cover deep single-bank queues (fig4's one-bank confinement), refresh
// pausing, subarray-level refresh (SALP) and the adaptive and OOO
// per-bank policies. Regenerate deliberately with:
//
//	go test ./internal/harness/ -run TestQuickCellHashes -update
var quickCells = []struct {
	name string
	run  func(p Params) (*core.Report, error)
}{
	{"fig4/WL-8/32Gb/confine1", func(p Params) (*core.Report, error) {
		return p.runConfined(config.Density32Gb, selectMixes([]string{"WL-8"})[0], 1)
	}},
	{"ext1/WL-6/32Gb/pausing", func(p Params) (*core.Report, error) {
		cfg := p.configFor(config.Density32Gb, bundle{"pausing", config.RefreshPausing, false}, false)
		return p.run(cfg, selectMixes([]string{"WL-6"})[0], "")
	}},
	{"ext1/WL-6/32Gb/perbank-salp8", func(p Params) (*core.Report, error) {
		cfg := p.configFor(config.Density32Gb, bundle{"perbanksa", config.RefreshPerBankSA, false}, false)
		cfg.Mem.SubarraysPerBank = 8
		return p.run(cfg, selectMixes([]string{"WL-6"})[0], "")
	}},
	{"fig14/WL-6/32Gb/adaptive", func(p Params) (*core.Report, error) {
		return p.runBundle(config.Density32Gb, bundleAdaptive, false, selectMixes([]string{"WL-6"})[0])
	}},
	{"fig14/WL-8/32Gb/oooperbank", func(p Params) (*core.Report, error) {
		return p.runBundle(config.Density32Gb, bundleOOO, false, selectMixes([]string{"WL-8"})[0])
	}},
}

// TestQuickCellHashes pins the sha256 of each quick cell's report JSON.
// It runs under -short too: it is the Tier-1 guard on simulated output
// where the controller is under load.
func TestQuickCellHashes(t *testing.T) {
	path := filepath.Join("testdata", "quick_cells.json")
	want := map[string]string{}
	if !*updateGolden {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing hashes (run with -update to capture): %v", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]string, len(quickCells))
	t.Run("cells", func(t *testing.T) {
		for i, c := range quickCells {
			i, c := i, c
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				rep, err := c.run(QuickParams())
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				got[i] = hex.EncodeToString(sum[:])
				if !*updateGolden && got[i] != want[c.name] {
					t.Errorf("report sha256 %s, want %s (events %d)", got[i], want[c.name], rep.Events)
				}
			})
		}
	})
	if *updateGolden && !t.Failed() {
		out := map[string]string{}
		for i, c := range quickCells {
			out[c.name] = got[i]
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
