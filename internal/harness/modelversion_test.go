package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// modelDigests is the sha256 of every file that holds simulated output,
// recorded when ModelVersion was digestsVersion.
const digestsVersion = 4

var modelDigests = map[string]string{
	"testdata/golden/ext1.txt":  "a28c66fea5af042174313087b65082dc0b1c35d1991638a46f09cfcb2b8bacb0",
	"testdata/golden/fig10.txt": "8dea13234bfadadad796553dc2c102fccd4b281819f9e055d5cbf2a482862199",
	"testdata/golden/fig12.txt": "da1897b5d56e42c29d6560563be0ff8ac9aa4677aa9ead0aaa8e12bd9d5e90a9",
	"testdata/golden/fig13.txt": "8d49f56bc161084158cd41eebe797bb869a71a0b1ebec7659730a9b7353c0aa9",
	"testdata/golden/fig14.txt": "326eb8b1d8e3c2a385f507147ebe2a7a7f668638a498a757e9117e12a015ec83",
	"testdata/golden/fig15.txt": "2b44640d2f4734f88676e753e61cef9d1d72f91030304b916f7e8129e0ee3d38",
	"testdata/golden/fig3.txt":  "7ce51d87e2044bb1900c3e15817ce7d412aa9814bd612648ef14afe37bad4b63",
	"testdata/golden/fig4.txt":  "81101b3149c2b483388e12944f4f56c33f58090cbc196b1e75dad7dc22c99076",
	"testdata/golden/fig5.txt":  "4725c59bc9ce2e311390b0a63ae3819e37ec96c37b38ed7899ff39c6784e026e",
	"testdata/quick_cells.json": "9ce8137f8d0fb4722a5593a05ec480ac5161c3148e58e9c48d1db66dc54f3478",
	"../approx/traits_gen.go":   "955aa6df88af82baf5c8577f3343af1f1a35de42efb177f239d7e338b1144ce4",
}

// regenerate is what a change to simulated output must redo, besides
// bumping ModelVersion.
const regenerate = `regenerate the golden figures (go test ./internal/harness -run TestGoldenFigures -update), ` +
	`testdata/quick_cells.json (go test ./internal/harness -run TestQuickCellHashes -update), ` +
	`the approx traits (go run ./internal/approx/gen) and refbench's reference (-update-reference), ` +
	`then record the new digests and version in modelDigests and digestsVersion`

// TestModelVersionPinsOutput ties ModelVersion to the bytes it names:
// the golden figures, the quick cells' report hashes and the approx
// traits. When any of them changes while ModelVersion does not, results
// journaled or cached under the old model would answer for the new one,
// so the test fails and names the files that moved.
func TestModelVersionPinsOutput(t *testing.T) {
	files, err := filepath.Glob("testdata/golden/*")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "testdata/quick_cells.json", "../approx/traits_gen.go")
	seen := map[string]bool{}
	for _, f := range files {
		seen[f] = true
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got := hex.EncodeToString(sum[:])
		switch want, ok := modelDigests[f]; {
		case !ok:
			t.Errorf("%s (sha256 %s) holds simulated output but has no recorded digest", f, got)
		case got != want:
			t.Errorf("%s changed (sha256 %s, recorded %s)", f, got, want)
		}
	}
	for f := range modelDigests {
		if !seen[f] {
			t.Errorf("%s has a recorded digest but is gone", f)
		}
	}
	if t.Failed() && ModelVersion == digestsVersion {
		t.Fatalf("simulated output changed while ModelVersion is still %d: bump it, %s", ModelVersion, regenerate)
	}
	if ModelVersion != digestsVersion {
		t.Fatalf("ModelVersion is %d but the digests were recorded under %d: %s", ModelVersion, digestsVersion, regenerate)
	}
}
