package harness

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"refsched/internal/config"
	"refsched/internal/core"
	"refsched/internal/runner"
	"refsched/internal/workload"
)

// figure is one CLI target: the name it is run and served under, the
// aliases that name it too, and the driver that renders it.
type figure struct {
	name    string
	aliases []string
	run     func(Params) ([]*Result, error)
}

// figures is the target table, in the paper's order, which is the
// order "all" runs it in. FigureNames, RunFigure and CanonicalFigure
// all read it.
var figures = []figure{
	{name: "table1", run: table1},
	{name: "table2", run: table2},
	{name: "fig3", run: fig3},
	{name: "fig4", run: fig4},
	{name: "fig5", run: fig5},
	{name: "fig10", aliases: []string{"fig11"}, run: fig10},
	{name: "fig12", run: fig12.run},
	{name: "fig13", run: fig13},
	{name: "fig14", run: fig14.run},
	{name: "fig15", run: fig15},
	{name: "ext1", aliases: []string{"extensions"}, run: ext1},
}

// FigureNames lists the targets in table order: the figures services
// enumerate as individually addressable. RunFigure also takes the
// aliases and "all".
func FigureNames() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return names
}

// CanonicalFigure returns the target a name runs — a target's own name,
// the target an alias names, or "all" — so that every name of one
// computation shares a cache entry. ok is false for a name RunFigure
// rejects.
func CanonicalFigure(name string) (canonical string, ok bool) {
	if name == "all" {
		return name, true
	}
	for _, f := range figures {
		if f.name == name || slices.Contains(f.aliases, name) {
			return f.name, true
		}
	}
	return "", false
}

// RunFigure runs a target, an alias, or "all" (every target in table
// order) and returns its results: one Result for most targets, two for
// fig10 (with fig11) and fig13 (with its latency table). When a target
// of "all" fails, the results before it come back with the error.
// cmd/experiments and the serving daemon run figures only through it.
func RunFigure(name string, p Params) ([]*Result, error) {
	canonical, ok := CanonicalFigure(name)
	if !ok {
		return nil, fmt.Errorf("unknown target %q", name)
	}
	var out []*Result
	for _, f := range figures {
		if canonical == "all" || f.name == canonical {
			rs, err := f.run(p)
			out = append(out, rs...)
			if err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// Render renders results as cmd/experiments prints them, each result
// followed by a blank line. A figure the daemon serves is these bytes.
func Render(rs []*Result) []byte {
	var b bytes.Buffer
	for _, r := range rs {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// bundles is the bundle table: every bundle a figure prints, by name,
// so any cell of any figure is addressable as a single-cell request.
var bundles = func() map[string]bundle {
	all := []bundle{
		bundleNone, bundleAllBank, bundlePerBank, bundleOOO, bundleFGR2x, bundleFGR4x,
		bundleAdaptive, bundleCoDesign, bundleElastic, bundlePausing, bundleRAIDR, bundleSALP8,
	}
	for _, k := range confineBanks {
		all = append(all, confined(k))
	}
	for i := range scenarios {
		for _, b := range scenarioBundles {
			all = append(all, b.on(&scenarios[i]))
		}
	}
	m := make(map[string]bundle, len(all))
	for _, b := range all {
		m[b.name] = b
	}
	return m
}()

// BundleNames lists the bundle names RunCell accepts, sorted for
// deterministic display.
func BundleNames() []string {
	names := make([]string, 0, len(bundles))
	for n := range bundles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseDensity parses a density name as the figures print it ("32Gb",
// case-insensitive, bare "32" accepted) into a validated config
// density.
func ParseDensity(s string) (config.Density, error) {
	t := strings.TrimSuffix(strings.ToLower(strings.TrimSpace(s)), "gb")
	n, err := strconv.Atoi(t)
	if err != nil {
		return 0, fmt.Errorf("invalid density %q (want e.g. 32Gb)", s)
	}
	for _, d := range config.Densities {
		if int(d) == n {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unsupported density %q (want one of %v)", s, config.Densities)
}

// CellSpec is one cell's identity: its coordinates in the evaluation
// grid (Table 2 mix × density × bundle × retention regime) and every
// Params knob that changes its simulated result. Key names the cell in
// a Memo, and so in a result journal, and in the serving daemon's
// single-flight index; the JSON form travels as a fanned-out cluster
// cell. Params.Cell and Params.Spec build one.
type CellSpec struct {
	Mix     string `json:"mix"`
	Density string `json:"density"`
	Bundle  string `json:"bundle"`
	Hot     bool   `json:"hot"`

	Scale          uint64  `json:"scale"`
	FootprintScale float64 `json:"footprint_scale"`
	WarmupWindows  int     `json:"warmup_windows"`
	MeasureWindows int     `json:"measure_windows"`
	Seed           uint64  `json:"seed"`
	Mode           string  `json:"mode,omitempty"`
}

// Cell validates a cell's coordinates and p's Mode, and returns the
// cell's spec under p. The density is canonicalized ("32" and "32gb"
// both become "32Gb"), so every spelling of one cell has one Key.
func (p Params) Cell(mixName, density, bundleName string, highTemp bool) (CellSpec, error) {
	mix, d, b, err := p.resolveCell(mixName, density, bundleName)
	if err != nil {
		return CellSpec{}, err
	}
	return p.Spec(p.cell(mix, d, b, highTemp)), nil
}

// resolveCell is Cell's validation: it checks p's Mode and looks a
// cell's coordinates up.
func (p Params) resolveCell(mixName, density, bundleName string) (workload.Mix, config.Density, bundle, error) {
	if err := CheckMode(p.Mode); err != nil {
		return workload.Mix{}, 0, bundle{}, err
	}
	ms := selectMixes([]string{mixName})
	if len(ms) != 1 {
		return workload.Mix{}, 0, bundle{}, fmt.Errorf("unknown mix %q (want WL-1..WL-10)", mixName)
	}
	d, err := ParseDensity(density)
	if err != nil {
		return workload.Mix{}, 0, bundle{}, err
	}
	b, ok := bundles[bundleName]
	if !ok {
		return workload.Mix{}, 0, bundle{}, fmt.Errorf("unknown bundle %q (want one of %v)", bundleName, BundleNames())
	}
	return ms[0], d, b, nil
}

// cell is the sweep cell at resolved coordinates: the value a figure
// enumerates and looks its report up by.
func (p Params) cell(mix workload.Mix, d config.Density, b bundle, highTemp bool) runner.Cell {
	return runner.Cell{Mix: mix.Name, Density: d.String(), Bundle: b.name, Seed: p.Seed, Hot: highTemp}
}

// Spec returns the spec of sweep cell c under p.
func (p Params) Spec(c runner.Cell) CellSpec {
	return CellSpec{
		Mix: c.Mix, Density: c.Density, Bundle: c.Bundle, Hot: c.Hot,
		Scale: p.Scale, FootprintScale: p.FootprintScale,
		WarmupWindows: p.WarmupWindows, MeasureWindows: p.MeasureWindows,
		Seed: p.Seed, Mode: p.Mode,
	}
}

// Params returns the result-affecting parameters the cell runs under;
// the caller adds the scheduling-side knobs (contexts, store, runner).
func (c CellSpec) Params() Params {
	return Params{
		Scale:          c.Scale,
		FootprintScale: c.FootprintScale,
		WarmupWindows:  c.WarmupWindows,
		MeasureWindows: c.MeasureWindows,
		Seed:           c.Seed,
		Mode:           c.Mode,
	}
}

// Key is the cell's identity string: its coordinates followed by the
// Fingerprint of its parameters.
func (c CellSpec) Key() string {
	return fmt.Sprintf("cell|%s|%s|%s|hot=%t|%s",
		c.Mix, c.Density, c.Bundle, c.Hot, c.Params().Fingerprint())
}

// RunCell simulates one fully addressed cell — mix × density × bundle,
// optionally at >85C retention — through the same fault boundary as the
// figure sweeps (quarantine, chaos, the store and its memo, and the
// injected CellRunner all apply), so a daemon serving single-cell jobs
// gets identical semantics to whole-figure jobs. The sweep is the
// one-cell figure "cell"; the coordinates are validated as by Cell.
func RunCell(p Params, mixName, density, bundleName string, highTemp bool) (*core.Report, error) {
	mix, d, b, err := p.resolveCell(mixName, density, bundleName)
	if err != nil {
		return nil, err
	}
	c := p.cell(mix, d, b, highTemp)
	out, failed, err := p.runCells("cell", []runner.Cell{c})
	if err != nil {
		return nil, err
	}
	if len(failed) > 0 {
		return nil, failed[0]
	}
	rep, ok := out[c]
	if !ok {
		return nil, fmt.Errorf("cell %s produced no report", c)
	}
	return rep, nil
}
