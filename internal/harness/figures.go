package harness

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"refsched/internal/config"
	"refsched/internal/core"
	"refsched/internal/runner"
	"refsched/internal/workload"
)

// FigureNames lists the CLI targets RunFigure accepts, in the order
// cmd/experiments documents them. "all" (every target in sequence) is
// accepted by RunFigure but deliberately absent here: the list is what
// services enumerate as individually addressable figures.
func FigureNames() []string {
	return []string{
		"table1", "table2",
		"fig3", "fig4", "fig5", "fig10", "fig12", "fig13", "fig14", "fig15",
		"ext1",
	}
}

// RunFigure runs one named CLI target and returns its rendered
// results — one Result for most targets, two for the paired figures
// (fig10 also yields fig11; fig13 its latency table). It is the single
// dispatch point shared by cmd/experiments and the serving daemon, so
// a figure served over HTTP is produced by exactly the code path the
// batch CLI prints.
func RunFigure(name string, p Params) ([]*Result, error) {
	switch name {
	case "all":
		return All(p)
	case "table1":
		return []*Result{Table1(p)}, nil
	case "table2":
		return []*Result{Table2Result()}, nil
	case "fig3":
		return one(Fig3(p))
	case "fig4":
		return one(Fig4(p))
	case "fig5":
		return one(Fig5(p))
	case "fig10", "fig11":
		r10, r11, err := Fig10(p, false)
		if err != nil {
			return nil, err
		}
		return []*Result{r10, r11}, nil
	case "fig12":
		return one(Fig12(p))
	case "fig13":
		r13, r13lat, err := Fig10(p, true)
		if err != nil {
			return nil, err
		}
		return []*Result{r13, r13lat}, nil
	case "fig14":
		return one(Fig14(p))
	case "fig15":
		return one(Fig15(p))
	case "ext1", "extensions":
		return one(Extensions(p))
	}
	return nil, fmt.Errorf("unknown target %q", name)
}

func one(r *Result, err error) ([]*Result, error) {
	if err != nil {
		return nil, err
	}
	return []*Result{r}, nil
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
	if err := p.checkMode(); err != nil {
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
