package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"refsched/internal/runner"
	"refsched/internal/service"
	"refsched/internal/timeline"
)

// serveClients is the closed loop's size: each client sends its next
// request only after its previous one completed, over a connection of
// its own.
const serveClients = 2

// The serve workload's figure requests. Phase (a) asks a fresh daemon
// for serveFirstFigure; phase (b)'s GETs pick among serveFigures. The
// daemon renders them at its default seed, daemonSeed.
var serveFigures = []string{"fig10", "fig12", "fig14"}

const (
	serveFirstFigure = "fig10"
	daemonSeed       = 1
)

// serveCells lists every single-cell job the serve workload can post:
// each of the sweeps' mixes × {16,24,32}Gb × {allbank, perbank,
// codesign} × params.seed 1..4 — 144 cells at the quick mixes.
func serveCells(mixes []string) []runner.Cell {
	var cells []runner.Cell
	for _, m := range mixes {
		for _, d := range []string{"16Gb", "24Gb", "32Gb"} {
			for _, bundle := range []string{"allbank", "perbank", "codesign"} {
				for s := uint64(1); s <= 4; s++ {
					cells = append(cells, runner.Cell{Mix: m, Density: d, Bundle: bundle, Seed: s})
				}
			}
		}
	}
	return cells
}

// serveOp is one phase (b) request.
type serveOp struct {
	figure string      // GET /v1/figures/<figure> when set
	cell   runner.Cell // otherwise POST this single-cell job
}

// serveOps builds phase (b): n ops, 60% single-cell POSTs and 40%
// figure GETs, in an order drawn from seed. The ops themselves do not
// depend on the seed — the cells in turn, round again until the POSTs
// are used up, and the figures in turn — so every seed simulates the
// same cells and figures, and only their interleaving changes, and with
// it which repeats the cache answers and which coalesce onto a running
// job. Drawing the ops themselves from the seed spreads serve's
// latencies 11–13% of their medians across seeds.
func serveOps(seed uint64, n int, mixes []string) []serveOp {
	cells := serveCells(mixes)
	posts := n * 6 / 10
	ops := make([]serveOp, n)
	for i := range ops {
		if i < posts {
			ops[i].cell = cells[i%len(cells)]
		} else {
			ops[i].figure = serveFigures[(i-posts)%len(serveFigures)]
		}
	}
	rng := splitmix64(seed)
	for i := n - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		ops[i], ops[j] = ops[j], ops[i]
	}
	return ops
}

// splitmix64 is a small seeded generator whose sequence is fixed here,
// independent of any library's choice of algorithm.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// servePass is one measured daemon lifetime: start, phase (a), phase
// (b), drain.
type servePass struct {
	speed      hostSpeed
	setup      time.Duration
	first      opResult
	ops        []opResult
	phaseB     time.Duration
	allocBytes uint64
	rssMB      float64
	before     counters // after phase (a): the baseline of phase (b)'s deltas
	after      counters
	tally
}

// serveTrace is what a traced pass records besides the measurements.
type serveTrace struct {
	rec         *timeline.Recorder
	start       time.Time
	profilePath string
	profileSecs int
	queued      []float64 // ms, per job
	gateWait    []float64 // ms, per gate admission
	cellRun     []float64 // ms, per simulated cell
}

// servePass runs one pass between two host-speed measurements and
// scores what the daemon served.
func (b *bench) servePass(ctx context.Context, ops []serveOp, tr *serveTrace) (*servePass, error) {
	p := &servePass{}
	var d *daemon
	speed, err := atHostSpeed(func() error {
		var err error
		d, err = b.drive(ctx, p, ops, tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	p.speed = speed
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.rssMB = float64(ru.Maxrss) / 1024
	}
	if err := b.scoreServe(p, d.journal); err != nil {
		return nil, err
	}
	return p, nil
}

// drive takes a fresh daemon through phases (a) and (b) and drains it.
func (b *bench) drive(ctx context.Context, p *servePass, ops []serveOp, tr *serveTrace) (*daemon, error) {
	d, err := b.startDaemon(ctx)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	p.setup = d.setup
	clients := make([]*http.Client, serveClients)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		defer clients[i].CloseIdleConnections()
	}
	c0, err := d.counters(ctx)
	if err != nil {
		return nil, err
	}

	if tr != nil {
		tr.start = time.Now()
	}
	p.first = d.do(ctx, clients[0], serveOp{figure: serveFirstFigure})
	if tr != nil {
		tr.opSpan(0, p.first)
	}
	if p.before, err = d.counters(ctx); err != nil {
		return nil, err
	}

	var profErr chan error
	if tr != nil {
		profErr = make(chan error, 1)
		go func() { profErr <- d.fetchProfile(ctx, tr.profilePath, tr.profileSecs) }()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	p.ops = make([]opResult, len(ops))
	t0 := time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				p.ops[i] = d.do(ctx, clients[c], ops[i])
				if tr != nil {
					tr.opSpan(int32(c+1), p.ops[i])
				}
			}
		}(c)
	}
	wg.Wait()
	p.phaseB = time.Since(t0)
	if tr != nil {
		if err := <-profErr; err != nil {
			return nil, err
		}
		tr.rec.Span(1, 0, "phase (b)", uint64(t0.Sub(tr.start).Microseconds()), uint64(p.phaseB.Microseconds()))
		if err := tr.mergeJobs(ctx, d, p.ops); err != nil {
			return nil, err
		}
	}
	if p.after, err = d.counters(ctx); err != nil {
		return nil, err
	}
	p.allocBytes = p.after.totalAlloc - c0.totalAlloc
	return d, d.stop()
}

// scoreServe counts the pass's ops: phase (a) and every phase (b)
// request. A request fails on a transport error, a non-2xx status or a
// job not ending done; a figure also fails when its bytes differ from
// the reference, and a posted cell when the report the daemon stored
// for it does not match the reference.
func (b *bench) scoreServe(p *servePass, journal string) error {
	stored, err := storedCells(journal)
	if err != nil {
		return err
	}
	for _, o := range append([]opResult{p.first}, p.ops...) {
		p.attempted++
		switch {
		case !o.ok:
			p.fail("%s", o.err)
		case o.op.figure != "":
			p.check(b.ref.Figures, figureKey(o.op.figure, daemonSeed), o.sha)
		default:
			key := cellKey("cell", o.op.cell)
			want, ok := b.ref.Cells[key]
			switch {
			case !ok:
				p.unverified = append(p.unverified, key)
			case !stored[want]:
				p.fail("%s (job %s): the daemon stored no report matching the reference", key, o.job)
			}
		}
	}
	return nil
}

// serve measures the serve workload: set-up probes, then whole passes
// (a fresh daemon each) until b.seconds have elapsed, then a traced
// pass when tracing.
func (b *bench) serve(ctx context.Context) (*result, error) {
	r := &result{workload: "serve", values: map[string]float64{}}
	ops := serveOps(b.seed, b.serveOps, b.params.Mixes)

	setups, err := probeSetup(func() (time.Duration, error) {
		d, err := b.startDaemon(ctx)
		if err != nil {
			return 0, err
		}
		return d.setup, d.stop()
	})
	if err != nil {
		return nil, err
	}

	var passes []*servePass
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds() < b.seconds {
		p, err := b.servePass(ctx, ops, nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		setups = append(setups, p.speed.time(p.setup.Seconds()))
		r.add(p.tally)
	}

	per := map[string][]float64{}
	var rss float64
	for _, p := range passes {
		var cold, hit []float64
		okOps := 0
		for _, o := range p.ops {
			switch {
			case !o.ok:
			case o.cold:
				cold = append(cold, o.ms)
			default:
				hit = append(hit, o.ms)
			}
			if o.ok {
				okOps++
			}
		}
		raw := p.first.ms/1e3 + p.phaseB.Seconds()
		coldTail, hitTail := tailPercentile(len(cold)), tailPercentile(len(hit))
		per["wall_s"] = append(per["wall_s"], p.speed.time(raw))
		per["first_fig_s"] = append(per["first_fig_s"], p.speed.time(p.first.ms/1e3))
		per["cold_p50_ms"] = append(per["cold_p50_ms"], p.speed.time(percentile(cold, 50)))
		per["cold_tail_ms"] = append(per["cold_tail_ms"], p.speed.time(percentile(cold, coldTail)))
		per["ops_per_s"] = append(per["ops_per_s"], p.speed.rate(float64(okOps)/p.phaseB.Seconds()))
		per["alloc_gb"] = append(per["alloc_gb"], float64(p.allocBytes)/1e9)
		per["cold_samples"] = append(per["cold_samples"], float64(len(cold)))
		per["cold_tail_pct"] = append(per["cold_tail_pct"], coldTail)
		per["hit_p50_ms"] = append(per["hit_p50_ms"], percentile(hit, 50))
		per["hit_tail_ms"] = append(per["hit_tail_ms"], percentile(hit, hitTail))
		per["host.speed"] = append(per["host.speed"], float64(p.speed))
		per["host.raw_wall_s"] = append(per["host.raw_wall_s"], raw)
		rss = max(rss, p.rssMB)
	}
	for name, vs := range per {
		r.values[name] = percentile(vs, 50)
	}
	r.values["setup_s"] = percentile(setups, 50)
	r.values["peak_rss_mb"] = rss

	if b.traceDir != "" {
		// The profile covers phase (b), which the untraced passes timed.
		secs := int(math.Ceil(passes[0].phaseB.Seconds())) + 1
		if err := b.tracedServe(ctx, r, ops, secs); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// tracedServe runs one more pass with the daemon's CPU profile fetched
// over phase (b) and spans recorded around every request, then derives
// the per-layer metrics from it.
func (b *bench) tracedServe(ctx context.Context, r *result, ops []serveOp, profileSecs int) error {
	tr := &serveTrace{
		rec:         timeline.NewRecorder(nil, 0),
		profilePath: filepath.Join(b.traceDir, "serve.cpu.pprof"),
		profileSecs: profileSecs,
	}
	tr.rec.SetProcessName(1, "refbench serve")
	tr.rec.SetThreadName(1, 0, "phases")
	for c := 1; c <= serveClients; c++ {
		tr.rec.SetThreadName(1, int32(c), fmt.Sprintf("client %d", c))
	}
	tr.rec.SetProcessName(3, "refschedd jobs")
	p, err := b.servePass(ctx, ops, tr)
	if err != nil {
		return err
	}
	r.add(p.tally)
	if err := writeTrace(filepath.Join(b.traceDir, "serve.trace.json"), tr.rec); err != nil {
		return err
	}
	samples, err := readProfile(ctx, tr.profilePath)
	if err != nil {
		return err
	}
	shares, cpu := layerShares(samples)
	for k, v := range shares {
		r.values[k] = v
	}
	delta := func(name string) float64 { return p.after.figure[name] - p.before.figure[name] }
	cells, events := delta("cells"), delta("sim_events")
	requests := delta("reads") + delta("writes")
	r.values["cells"] = cells
	r.values["events"] = events
	r.values["dram_requests"] = requests
	setLayerRatios(r.values, float64(cpu.Nanoseconds()), uint64(cells), uint64(events), uint64(requests), 0)
	r.values["cell_p50_ms"] = percentile(tr.cellRun, 50)
	r.values["cell_tail_ms"] = percentile(tr.cellRun, tailPercentile(len(tr.cellRun)))
	r.values["queue_wait_p50_ms"] = percentile(tr.queued, 50)
	r.values["gate_wait_p50_ms"] = percentile(tr.gateWait, 50)

	s0, s1 := p.before.stats, p.after.stats
	if n := (s1.Cache.Hits - s0.Cache.Hits) + (s1.Cache.Misses - s0.Cache.Misses); n > 0 {
		r.values["cache.hit_ratio"] = float64(s1.Cache.Hits-s0.Cache.Hits) / float64(n)
	}
	r.values["jobs.deduped"] = float64(s1.Jobs.Deduped - s0.Jobs.Deduped)
	r.values["simulations"] = float64(s1.Simulations - s0.Simulations)
	r.values["preemptions"] = float64(s1.Resilience.Preemptions - s0.Resilience.Preemptions)
	shed := func(s service.Stats) uint64 {
		return s.Resilience.ShedRate + s.Resilience.ShedInFlight + s.Resilience.ShedBrownout
	}
	r.values["shed"] = float64(shed(s1) - shed(s0))
	r.values["brownout_engagements"] = float64(s1.Resilience.BrownoutEngagements - s0.Resilience.BrownoutEngagements)
	raw := p.first.ms/1e3 + p.phaseB.Seconds()
	r.values["trace_overhead"] = p.speed.time(raw)/r.values["wall_s"] - 1
	return nil
}

// opSpan records one request on its client's track.
func (tr *serveTrace) opSpan(tid int32, o opResult) {
	name := "GET " + o.op.figure
	if o.op.figure == "" {
		name = "POST " + o.op.cell.String()
	}
	cold := int64(0)
	if o.cold {
		cold = 1
	}
	tr.rec.Emit(timeline.Event{Ph: timeline.PhaseSpan,
		Ts: uint64(o.start.Sub(tr.start).Microseconds()), Dur: uint64(o.ms * 1e3),
		Pid: 1, Tid: tid, Name: name, Arg1Name: "cold", Arg1: cold, StrName: "job", Str: o.job})
}

// mergeJobs fetches the daemon's timeline of every job a cold POST
// created or joined, copies it into the trace on a track of its own —
// its clock, microseconds since the job was created, shifted to the
// request that first named the job — and collects the job's stages:
// the queued span, the gate's admitted instants (wait_us), and the
// spans of simulated cells, which the daemon puts on process 2.
func (tr *serveTrace) mergeJobs(ctx context.Context, d *daemon, ops []opResult) error {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	seen := map[string]bool{}
	for _, o := range ops {
		if !o.ok || !o.cold || o.job == "" || seen[o.job] {
			continue
		}
		seen[o.job] = true
		body, resp, err := d.request(ctx, client, http.MethodGet, "/v1/jobs/"+o.job+"/timeline", "")
		if err != nil {
			return fmt.Errorf("job %s timeline: %w", o.job, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("job %s timeline: %s", o.job, resp.Status)
		}
		events, err := timeline.Decode(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("job %s timeline: %w", o.job, err)
		}
		tid := int32(len(seen))
		tr.rec.SetThreadName(3, tid, o.job)
		offset := uint64(o.start.Sub(tr.start).Microseconds())
		for _, e := range events {
			if e.Ph == "M" {
				continue
			}
			ev := timeline.Event{Ph: e.Ph[0], Ts: *e.Ts + offset, Pid: 3, Tid: tid, Name: e.Name}
			if e.Dur != nil {
				ev.Dur = *e.Dur
			}
			for k, v := range e.Args {
				switch v := v.(type) {
				case float64:
					ev.Arg1Name, ev.Arg1 = k, int64(v)
				case string:
					ev.StrName, ev.Str = k, v
				}
			}
			tr.rec.Emit(ev)
			switch {
			case e.Name == "queued" && e.Dur != nil:
				tr.queued = append(tr.queued, float64(*e.Dur)/1e3)
			case e.Name == "admitted":
				if w, ok := e.Args["wait_us"].(float64); ok {
					tr.gateWait = append(tr.gateWait, w/1e3)
				}
			case e.Pid == 2 && e.Ph == "X":
				tr.cellRun = append(tr.cellRun, float64(*e.Dur)/1e3)
			}
		}
	}
	return nil
}
