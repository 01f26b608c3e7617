package refresh

import (
	"fmt"

	"refsched/internal/sim"
)

// FGR is rank-level all-bank auto-refresh in DDR4's 1x, 2x or 4x mode.
// In 1x mode — plain all-bank refresh, the DDR3 default — every tREFIab
// each rank receives a REF command that refreshes a group of rows in all
// of its banks, holding the whole rank busy for tRFCab; commands to
// different ranks are staggered evenly across the interval, as real
// controllers do. In 2x (4x) mode the refresh interval halves (quarters)
// while tRFC shrinks only by 1.35x (1.63x) — the sub-linear scaling the
// paper adopts from Mukundan et al. — so finer modes trade shorter
// blocking episodes for more total refresh overhead.
type FGR struct {
	g        Geometry
	mode     int // 1, 2 or 4
	nextRank int
	rows     uint64
	interval uint64
	dur      uint64
}

// FGRDurFactor returns the tRFC shrink factor for a mode (1x→1, 2x→1.35,
// 4x→1.63).
func FGRDurFactor(mode int) float64 {
	switch mode {
	case 2:
		return 1.35
	case 4:
		return 1.63
	default:
		return 1
	}
}

// NewFGR builds an all-bank policy in DDR4 1x/2x/4x mode. An invalid
// mode is a configuration error reported at construction, so a bad
// sweep cell fails cleanly instead of crashing the batch.
func NewFGR(g Geometry, mode int) (*FGR, error) {
	if mode != 1 && mode != 2 && mode != 4 {
		return nil, fmt.Errorf("refresh: invalid FGR mode %d (DDR4 defines 1x, 2x and 4x)", mode)
	}
	tm := g.Timing
	trefi := tm.TREFIab / uint64(mode)
	cmds := tm.TREFW / trefi
	if cmds == 0 {
		cmds = 1
	}
	return &FGR{
		g:        g,
		mode:     mode,
		rows:     tm.RowsPerRefresh(cmds),
		interval: trefi / uint64(g.Ranks),
		dur:      uint64(float64(tm.TRFCab) / FGRDurFactor(mode)),
	}, nil
}

// mustFGR builds an FGR whose mode is a compile-time-valid constant.
func mustFGR(g Geometry, mode int) *FGR {
	f, err := NewFGR(g, mode)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements Scheduler.
func (f *FGR) Name() string {
	switch f.mode {
	case 2:
		return "fgr2x"
	case 4:
		return "fgr4x"
	default:
		return "allbank"
	}
}

// Interval implements Scheduler.
func (f *FGR) Interval() uint64 { return f.interval }

// Next implements Scheduler, rotating ranks.
func (f *FGR) Next(sim.Time, QueueView) Target {
	r := f.nextRank
	f.nextRank = (f.nextRank + 1) % f.g.Ranks
	return Target{AllBank: true, Rank: r, Rows: f.rows, Dur: f.dur}
}

// Adaptive is Adaptive Refresh (Mukundan et al., ISCA 2013): it monitors
// channel utilization and switches between DDR4 1x mode (lower total
// overhead, long blocking) when the channel is busy and 4x mode (short
// blocking episodes) when the channel is lightly loaded, re-evaluating
// once per epoch.
type Adaptive struct {
	one      *FGR
	four     *FGR
	cur      *FGR
	epoch    uint64 // cycles between mode decisions
	highUtil float64
	nextEval sim.Time

	// ModeSwitches counts 1x<->4x transitions (reported in stats).
	ModeSwitches uint64
}

// NewAdaptive builds the policy; epoch (cycles) and highUtil default to
// 100 µs @3.2 GHz and 0.5 when zero.
func NewAdaptive(g Geometry, epoch uint64, highUtil float64) *Adaptive {
	if epoch == 0 {
		epoch = 320000 // 100 µs at 3.2 GHz
	}
	if highUtil == 0 {
		highUtil = 0.5
	}
	a := &Adaptive{
		one:      mustFGR(g, 1),
		four:     mustFGR(g, 4),
		epoch:    epoch,
		highUtil: highUtil,
	}
	a.cur = a.one
	return a
}

// Name implements Scheduler.
func (*Adaptive) Name() string { return "adaptive" }

// Interval implements Scheduler, delegating to the current mode.
func (a *Adaptive) Interval() uint64 { return a.cur.Interval() }

// Mode returns the currently selected FGR mode (1 or 4).
func (a *Adaptive) Mode() int { return a.cur.mode }

// Next implements Scheduler. At epoch boundaries it consults the queue
// utilization: a highly utilized channel prefers 1x (fewer, coarser
// commands — less total overhead); a lightly utilized one prefers 4x
// (short episodes that hide in idle gaps).
func (a *Adaptive) Next(now sim.Time, q QueueView) Target {
	if now >= a.nextEval {
		a.nextEval = now + sim.Time(a.epoch)
		want := a.four
		if q != nil && q.Utilization() >= a.highUtil {
			want = a.one
		}
		if want != a.cur {
			a.cur = want
			a.ModeSwitches++
		}
	}
	return a.cur.Next(now, q)
}
