package mc

import (
	"testing"

	"refsched/internal/config"
	"refsched/internal/dram"
	"refsched/internal/refresh"
	"refsched/internal/sim"
)

// rig bundles a controller test fixture. It stands in for the system
// dispatcher: controller payload events route back to the controller,
// and completion events invoke per-miss callbacks registered by the
// test (the role cpu.Core.MissComplete plays in the real machine).
type rig struct {
	eng *sim.Engine
	ch  *dram.Channel
	mc  *Controller
	tm  dram.Timing
	cfg config.System

	onDone   map[uint64]func(finish sim.Time)
	nextMiss uint64
	// done records every completion event in execution order, owned or
	// not, by its miss word.
	done []completion
	// fs holds the funcs a test schedules with at; a KindNone payload
	// carries its index.
	fs []func()
	// rescan routes try-issue events to the reference issue engine
	// (rescan_test.go) instead of the controller's own.
	rescan bool
}

func newRig(t *testing.T, pol config.RefreshPolicy) *rig {
	t.Helper()
	return newRigWith(t, pol, nil)
}

// newRigWith builds a rig whose memory config mutate adjusts first (nil
// keeps the default).
func newRigWith(t *testing.T, pol config.RefreshPolicy, mutate func(*config.MemConfig)) *rig {
	t.Helper()
	cfg := config.Default(config.Density32Gb, 64)
	if mutate != nil {
		mutate(&cfg.Mem)
	}
	tm := dram.TimingFrom(&cfg)
	eng := sim.NewEngine()
	ch := dram.NewChannel(0, cfg.Mem, &tm)
	geo := refresh.Geometry{Ranks: cfg.Mem.Ranks(), BanksPerRank: cfg.Mem.BanksPerRank,
		Subarrays: cfg.Mem.SubarraysPerBank, Timing: &tm}
	p, st, err := refresh.New(pol, geo)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{eng: eng, ch: ch, mc: New(eng, ch, cfg.Mem, p, st), tm: tm, cfg: cfg,
		onDone: make(map[uint64]func(sim.Time))}
	eng.SetExec(func(pl sim.Payload) {
		switch {
		case pl.Kind == sim.KindNone:
			r.fs[pl.A]()
		case pl.Kind == sim.KindMCComplete:
			r.done = append(r.done, completion{at: r.eng.Now(), miss: pl.C})
			if pl.B != 0 {
				if fn := r.onDone[pl.C]; fn != nil {
					fn(r.eng.Now())
				}
			}
		case pl.Kind == sim.KindMCTryIssue && r.rescan:
			r.mc.rescanTryIssue()
		default:
			r.mc.Exec(pl)
		}
	})
	return r
}

// completion is one completion event the rig executed.
type completion struct {
	at   sim.Time
	miss uint64
}

// interval is the refresh policy's current interval.
func (r *rig) interval() sim.Time { return sim.Time(r.mc.policy.Interval(&r.mc.refSt)) }

// at schedules fn as an event at absolute time t.
func (r *rig) at(t sim.Time, fn func()) {
	r.fs = append(r.fs, fn)
	r.eng.SchedulePAt(t, sim.Payload{A: uint64(len(r.fs) - 1)})
}

// runIdle runs the engine until no event is pending, leaving the clock
// at the last one.
func (r *rig) runIdle() {
	for {
		st := r.eng.SnapshotState()
		if len(st.Events) == 0 {
			return
		}
		r.eng.RunUntil(st.Events[len(st.Events)-1].When)
	}
}

// miss registers a completion callback and returns its miss id.
func (r *rig) miss(fn func(finish sim.Time)) uint64 {
	r.nextMiss++
	r.onDone[r.nextMiss] = fn
	return r.nextMiss
}

// read submits a read to (rank,bank,row) and returns a *sim.Time that
// will hold the completion time.
func (r *rig) read(t *testing.T, rank, bank int, row uint64) *sim.Time {
	t.Helper()
	done := new(sim.Time)
	req := &Request{
		Coord: dram.Coord{Rank: rank, Bank: bank, Row: row},
		Owner: Owner{Valid: true, Miss: r.miss(func(at sim.Time) { *done = at })},
	}
	if !r.mc.SubmitRead(req) {
		t.Fatal("read queue unexpectedly full")
	}
	return done
}

func TestReadCompletes(t *testing.T) {
	r := newRig(t, config.RefreshNone)
	done := r.read(t, 0, 0, 5)
	r.runIdle()
	want := r.tm.TRCD + r.tm.TCL + r.tm.TBL
	if *done != sim.Time(want) {
		t.Fatalf("completion at %d, want %d", *done, want)
	}
	if r.mc.Stats.Reads != 1 {
		t.Fatalf("reads = %d", r.mc.Stats.Reads)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	r := newRig(t, config.RefreshNone)
	// Open row 1 in bank 0.
	first := r.read(t, 0, 0, 1)
	r.runIdle()
	_ = first
	// Now enqueue a conflicting request (older) and a row hit (younger)
	// to the same bank: the row hit should be served first.
	conflict := r.read(t, 0, 0, 2)
	hit := r.read(t, 0, 0, 1)
	r.runIdle()
	if !(*hit < *conflict) {
		t.Fatalf("row hit done at %d, conflict at %d; hit should win", *hit, *conflict)
	}
}

func TestFRFCFSAntiStarvation(t *testing.T) {
	r := newRig(t, config.RefreshNone)
	r.read(t, 0, 0, 1)
	r.runIdle()
	// One conflicting request, then a long run of row hits. The
	// conflict's bypass budget must eventually force it through.
	conflict := r.read(t, 0, 0, 2)
	var lastHit *sim.Time
	for i := 0; i < 2*maxBypasses; i++ {
		lastHit = r.read(t, 0, 0, 1)
	}
	r.runIdle()
	if *conflict > *lastHit {
		t.Fatalf("conflict starved: done %d after all %d hits (last %d)", *conflict, 2*maxBypasses, *lastHit)
	}
}

func TestBankParallelismOverlaps(t *testing.T) {
	r := newRig(t, config.RefreshNone)
	// Two reads to different banks: both complete with only burst-level
	// serialization, far sooner than two serialized accesses.
	d1 := r.read(t, 0, 0, 1)
	d2 := r.read(t, 0, 1, 1)
	r.runIdle()
	lat1 := r.tm.TRCD + r.tm.TCL + r.tm.TBL
	if *d2 > sim.Time(lat1+r.tm.TBL) {
		t.Fatalf("second bank's read at %d, want bus-limited %d", *d2, lat1+r.tm.TBL)
	}
	if *d1 == *d2 {
		t.Fatal("bursts may not complete simultaneously")
	}
}

func TestReadQueueBackpressure(t *testing.T) {
	r := newRig(t, config.RefreshNone)
	// Stuff the queue beyond capacity without letting the engine run.
	n := 0
	for i := 0; ; i++ {
		req := &Request{Coord: dram.Coord{Rank: 0, Bank: i % 8, Row: uint64(i)}}
		if !r.mc.SubmitRead(req) {
			break
		}
		n++
	}
	if n != r.cfg.Mem.ReadQueue {
		t.Fatalf("accepted %d reads, queue size %d", n, r.cfg.Mem.ReadQueue)
	}
	if r.mc.Stats.QueueFullReadStalls != 1 {
		t.Fatalf("stall count = %d", r.mc.Stats.QueueFullReadStalls)
	}
	// A parked request is resubmitted and completes once space frees.
	done := new(sim.Time)
	waiter := &Request{
		Coord: dram.Coord{Rank: 0, Bank: 0, Row: 999},
		Owner: Owner{Valid: true, Miss: r.miss(func(at sim.Time) { *done = at })},
	}
	r.mc.WhenReadSpace(waiter)
	r.runIdle()
	if *done == 0 {
		t.Fatal("read-space waiter never completed")
	}
}

func TestWriteDrainWatermarks(t *testing.T) {
	r := newRig(t, config.RefreshNone)
	// Fill writes to the high watermark; a drain episode must start and
	// pull the queue down to the low watermark or below.
	for i := 0; i < r.cfg.Mem.WriteHighWater; i++ {
		ok := r.mc.SubmitWrite(&Request{Coord: dram.Coord{Rank: 0, Bank: i % 8, Row: uint64(i / 8)}})
		if !ok {
			t.Fatal("write queue full too early")
		}
	}
	if r.mc.Stats.WriteDrains != 1 {
		t.Fatalf("drain episodes = %d, want 1", r.mc.Stats.WriteDrains)
	}
	r.runIdle()
	if r.mc.WriteQueueLen() != 0 {
		// With no read traffic the opportunistic path empties it fully.
		t.Fatalf("writes left = %d", r.mc.WriteQueueLen())
	}
	if r.mc.Stats.Writes != uint64(r.cfg.Mem.WriteHighWater) {
		t.Fatalf("writes issued = %d", r.mc.Stats.Writes)
	}
}

func TestWritesYieldToReadsOutsideDrain(t *testing.T) {
	r := newRig(t, config.RefreshNone)
	// A few writes below the watermark plus a read: read goes first.
	for i := 0; i < 4; i++ {
		r.mc.SubmitWrite(&Request{Coord: dram.Coord{Rank: 0, Bank: 1, Row: 9}})
	}
	done := r.read(t, 0, 0, 1)
	r.runIdle()
	if *done > sim.Time(r.tm.TRCD+r.tm.TCL+r.tm.TBL) {
		t.Fatalf("read delayed to %d by sub-watermark writes", *done)
	}
}

func TestRefreshStallAccounting(t *testing.T) {
	r := newRig(t, config.RefreshAllBank)
	// Let the first refresh land, then submit a read mid-refresh.
	interval := r.interval()
	r.eng.RunUntil(interval + 1)
	done := r.read(t, 0, 0, 1) // rank 0 refreshing now
	// Run is unsuitable here: the refresh ticker reschedules forever.
	r.eng.RunUntil(interval + sim.Time(r.tm.TRFCab+100000))
	if r.mc.Stats.RefreshStalledReads != 1 {
		t.Fatalf("refresh-stalled reads = %d", r.mc.Stats.RefreshStalledReads)
	}
	if r.mc.Stats.RefreshStallCycles == 0 {
		t.Fatal("no stall cycles recorded")
	}
	refEnd := interval + sim.Time(r.tm.TRFCab)
	if *done < refEnd {
		t.Fatalf("read finished %d before refresh end %d", *done, refEnd)
	}
}

// TestNewRequestReusesIssuedRequests checks that NewRequest hands out
// the requests the controller has issued, and that a reused request
// carries nothing from its last use: no stall mark, bypass count,
// owner words, task or arrival time.
func TestNewRequestReusesIssuedRequests(t *testing.T) {
	r := newRig(t, config.RefreshAllBank)
	issued := map[*Request]bool{}
	submit := func(bank int, row uint64) *Request {
		req := r.mc.NewRequest(row<<6, dram.Coord{Rank: 0, Bank: bank, Row: row})
		req.TaskID = 3
		req.Owner = Owner{Valid: true, Core: 1, Miss: r.miss(func(sim.Time) {}), Epoch: 7}
		if !r.mc.SubmitRead(req) {
			t.Fatal("read queue unexpectedly full")
		}
		issued[req] = true
		return req
	}
	// Open row 1 of bank 0, then queue a conflict ahead of a row hit:
	// the hit bypasses the conflict.
	submit(0, 1)
	r.eng.RunUntil(1000)
	conflict := submit(0, 2)
	submit(0, 1)
	r.eng.RunUntil(2000)
	if conflict.Bypasses == 0 {
		t.Fatal("the row hit did not bypass the conflict")
	}
	// A read that arrives while rank 0 refreshes is marked stalled.
	interval := r.interval()
	r.eng.RunUntil(interval + 1)
	stalled := submit(1, 5)
	r.eng.RunUntil(interval + sim.Time(r.tm.TRFCab) + 1000)
	if r.mc.Stats.Reads != 4 || !stalled.RefreshStalled {
		t.Fatalf("issued %d reads, stall mark %v; want 4, true", r.mc.Stats.Reads, stalled.RefreshStalled)
	}
	// Submissions reused requests issued before them, so fewer than four
	// requests exist; every one of them is free again.
	for i, n := 0, len(issued); i < n; i++ {
		coord := dram.Coord{Rank: 1, Bank: i, Row: 9}
		req := r.mc.NewRequest(0x1000+uint64(i), coord)
		if !issued[req] {
			t.Fatalf("NewRequest %d did not reuse one of the %d issued requests", i, len(issued))
		}
		delete(issued, req)
		if want := (Request{Addr: 0x1000 + uint64(i), Coord: coord}); *req != want {
			t.Fatalf("reused request = %+v, want %+v", *req, want)
		}
	}
}

func TestRefreshTicksKeepComing(t *testing.T) {
	r := newRig(t, config.RefreshPerBankRR)
	r.eng.RunUntil(sim.Time(r.tm.TREFIab * 2))
	// Two tREFIab at interval tREFIab/16 -> 32 commands.
	if r.mc.Stats.RefreshCommands < 30 {
		t.Fatalf("refresh commands = %d, want ~32", r.mc.Stats.RefreshCommands)
	}
}

func TestOutstandingToBankTracking(t *testing.T) {
	r := newRig(t, config.RefreshNone)
	r.read(t, 0, 3, 1)
	r.read(t, 0, 3, 2)
	r.read(t, 1, 3, 1)
	if got := r.mc.OutstandingToBank(3); got != 2 {
		t.Fatalf("bank 3 outstanding = %d, want 2", got)
	}
	if got := r.mc.OutstandingToBank(8 + 3); got != 1 {
		t.Fatalf("bank 11 outstanding = %d, want 1", got)
	}
	r.runIdle()
	if got := r.mc.OutstandingToBank(3); got != 0 {
		t.Fatalf("post-drain outstanding = %d", got)
	}
}

func TestUtilizationSampling(t *testing.T) {
	r := newRig(t, config.RefreshNone)
	// An empty controller over an idle epoch: utilization 0.
	r.eng.RunUntil(1000)
	if u := r.mc.Utilization(); u != 0 {
		t.Fatalf("idle utilization = %v", u)
	}
	// Saturate the queue, advance, and sample again.
	for i := 0; i < r.cfg.Mem.ReadQueue; i++ {
		r.mc.SubmitRead(&Request{Coord: dram.Coord{Rank: 0, Bank: 0, Row: uint64(i + 10)}})
	}
	r.eng.RunUntil(2000)
	if u := r.mc.Utilization(); u <= 0 {
		t.Fatalf("loaded utilization = %v, want > 0", u)
	}
}

func TestLatencyStats(t *testing.T) {
	r := newRig(t, config.RefreshNone)
	r.read(t, 0, 0, 1)
	r.runIdle()
	s := r.mc.Stats
	if s.Reads != 1 || s.ReadLatencySum != r.tm.TRCD+r.tm.TCL+r.tm.TBL || s.ReadQueueDelaySum != 0 {
		t.Fatalf("reads %d, latency sum %d, queue delay sum %d; want 1, %d, 0",
			s.Reads, s.ReadLatencySum, s.ReadQueueDelaySum, r.tm.TRCD+r.tm.TCL+r.tm.TBL)
	}
}
