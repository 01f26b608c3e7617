package mc

import (
	"math/rand"
	"reflect"
	"testing"

	"refsched/internal/config"
	"refsched/internal/dram"
	"refsched/internal/refresh"
	"refsched/internal/sim"
)

// issueDiffCases covers every refresh policy, subarray refresh with 8
// subarrays, the FCFS and closed-page ablations, and two policies
// wrapped in the test-only grantingPauser.
var issueDiffCases = []struct {
	name   string
	policy config.RefreshPolicy
	mutate func(*config.MemConfig)
	// granting wraps the policy in grantingPauser.
	granting bool
}{
	{name: "none", policy: config.RefreshNone},
	{name: "allbank", policy: config.RefreshAllBank},
	{name: "perbank", policy: config.RefreshPerBankRR},
	{name: "perbankseq", policy: config.RefreshPerBankSeq},
	{name: "oooperbank", policy: config.RefreshOOOPerBank},
	{name: "fgr2x", policy: config.RefreshFGR2x},
	{name: "fgr4x", policy: config.RefreshFGR4x},
	{name: "adaptive", policy: config.RefreshAdaptive},
	{name: "elastic", policy: config.RefreshElastic},
	{name: "pausing", policy: config.RefreshPausing},
	{name: "raidr", policy: config.RefreshRAIDR},
	{name: "perbanksa8", policy: config.RefreshPerBankSA, mutate: func(m *config.MemConfig) { m.SubarraysPerBank = 8 }},
	{name: "fcfs-allbank", policy: config.RefreshAllBank, mutate: func(m *config.MemConfig) { m.FCFS = true }},
	{name: "fcfs-pausing", policy: config.RefreshPausing, mutate: func(m *config.MemConfig) { m.FCFS = true }},
	{name: "closedpage-perbank", policy: config.RefreshPerBankRR, mutate: func(m *config.MemConfig) { m.ClosedPage = true }},
	{name: "closedpage-pausing", policy: config.RefreshPausing, mutate: func(m *config.MemConfig) { m.ClosedPage = true }},
	{name: "allbank-granting", policy: config.RefreshAllBank, granting: true},
	{name: "perbanksa8-granting", policy: config.RefreshPerBankSA, mutate: func(m *config.MemConfig) { m.SubarraysPerBank = 8 }, granting: true},
}

// grantingPauser grants every pause request of the policy it wraps,
// with a penalty that alternates between longer than the prompt window
// and zero. No configuration offers it; it reaches two corners the
// Pauser contract allows and the pausing policy never takes:
//   - around subarray-level refresh, a granted pause aborts nothing
//     (only bank- and rank-level refresh can be paused), so a miss to
//     a refreshing subarray is planned to start when that subarray's
//     refresh ends while a miss to another subarray of the same bank
//     can start at once: the controller must not memoize misses on
//     banks with subarrays;
//   - a second pause in one pick can make a bank that the pick already
//     rejected ready at once: the controller must forget the pick's
//     rejections after a pause.
type grantingPauser struct {
	refresh.Scheduler
	requests int
}

func (p *grantingPauser) RequestPause(*refresh.State, int) bool { p.requests++; return true }
func (*grantingPauser) Paused(*refresh.State, int, uint64)      {}
func (p *grantingPauser) PausePenalty() uint64 {
	if p.requests%2 == 1 {
		return 2 * promptWindow
	}
	return 0
}

// TestIssueEngineMatchesRescan drives the controller and the reference
// engine that rescans on every try-issue event (rescan_test.go) through
// the same seeded request streams, and requires the same schedule:
// every completion event's cycle, in order, and every request's stall
// mark, and at the end the controller and policy stats (whose sums
// cover every issue cycle), every bank's stats, the number of engine
// events and the checkpointable controller state.
func TestIssueEngineMatchesRescan(t *testing.T) {
	for _, tc := range issueDiffCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var filled, stalled, paused bool
			for seed := int64(1); seed <= 4; seed++ {
				want := newRigWith(t, tc.policy, tc.mutate)
				want.rescan = true
				got := newRigWith(t, tc.policy, tc.mutate)
				if tc.granting {
					// Nothing has run yet, so swapping the policy equals
					// building the controller with it.
					for _, r := range []*rig{want, got} {
						p := &grantingPauser{Scheduler: r.mc.policy}
						r.mc.policy, r.mc.pauser = p, p
					}
				}
				wantReqs := want.drive(seed)
				gotReqs := got.drive(seed)
				compareIssueRuns(t, seed, want, got, wantReqs, gotReqs)
				if t.Failed() {
					return
				}
				filled = filled || got.mc.Stats.QueueFullReadStalls > 0
				stalled = stalled || got.mc.Stats.RefreshStalledReads > 0
				paused = paused || got.mc.Stats.RefreshPauses > 0
				if p, ok := got.mc.pauser.(*grantingPauser); ok {
					paused = paused || p.requests > 0
				}
			}
			// The streams must reach the paths the engines could differ on.
			if !filled {
				t.Error("no stream filled the read queue")
			}
			if tc.policy != config.RefreshNone && !stalled && !paused {
				t.Error("no stream met a refreshing bank")
			}
			if tc.policy == config.RefreshPausing && !paused {
				t.Error("no stream paused a refresh")
			}
		})
	}
}

// evaluate runs one issue evaluation directly, as a try-issue event
// would, with the rig's engine.
func (r *rig) evaluate() {
	if r.rescan {
		r.mc.rescanTryIssue()
	} else {
		r.mc.tryIssue()
	}
}

// drive submits a seeded random stream to r and runs the engine until
// every request has finished: bursts of reads and writes to three
// banks, arriving faster than the banks serve them so queues fill and
// back-pressure waiters form (up to a bounded backlog), separated by
// idle gaps. It returns every request in submission order. Each
// request's Owner.Miss is its 1-based submission index (a write's Owner
// is not Valid), so completion events name the request they finish.
// The requests are built here rather than by NewRequest, so the
// controller never reuses them and their stall marks stay readable.
//
// A stale try-issue event that lands on the cycle of a submission or a
// refresh tick is rare, so drive also evaluates directly just before
// some bursts, and just before and just after each tick of a
// fixed-interval policy: the evaluation that follows sees the new
// queue, refresh and policy state only if the submission or the tick
// invalidated the record of the one before.
func (r *rig) drive(seed int64) []*Request {
	rng := rand.New(rand.NewSource(seed))
	// One bank in each rank, so rank-level refresh always meets the
	// stream, and one anywhere.
	bpr := r.ch.BanksPerRank
	banks := []int{rng.Intn(bpr), bpr + rng.Intn(bpr), rng.Intn(r.ch.TotalBanks())}
	stop := sim.Time(4 * r.tm.TREFIab)
	var reqs []*Request
	var inject func()
	inject = func() {
		// Now and then evaluate first, as a try-issue event queued for
		// this cycle would: the burst's submissions must invalidate its
		// record. (Each direct evaluation leaves one more retry event
		// behind, so not every burst gets one.)
		if rng.Intn(4) == 0 {
			r.evaluate()
		}
		// A third of the bursts are all writes, so write drains start
		// and writes arrive while only the write queue is being served.
		writes := rng.Intn(3) == 0
		for n := 1 + rng.Intn(8); n > 0 && len(r.mc.readWaiters)+len(r.mc.writeWaiters) < 16; n-- {
			g := banks[rng.Intn(len(banks))]
			req := &Request{TaskID: -1, Coord: dram.Coord{
				Rank: g / r.ch.BanksPerRank, Bank: g % r.ch.BanksPerRank,
				Row: uint64(rng.Intn(16)),
			}}
			reqs = append(reqs, req)
			req.Owner.Miss = uint64(len(reqs))
			if writes || rng.Intn(4) == 0 {
				if !r.mc.SubmitWrite(req) {
					r.mc.WhenWriteSpace(req)
				}
				continue
			}
			req.Owner.Valid = true
			if !r.mc.SubmitRead(req) {
				r.mc.WhenReadSpace(req)
			}
		}
		gap := 1 + rng.Intn(40)
		if rng.Intn(32) == 0 {
			gap += rng.Intn(int(r.tm.TREFIab))
		}
		if next := r.eng.Now() + sim.Time(gap); next < stop {
			r.at(next, inject)
		}
	}
	r.at(1, inject)
	if r.mc.policy != nil {
		interval := r.interval()
		var aroundTick func()
		aroundTick = func() {
			r.evaluate()
			// Scheduled now, this runs after the tick queued for this
			// cycle; the next probe is queued ahead of the tick that
			// follows.
			r.at(r.eng.Now(), r.evaluate)
			if next := r.eng.Now() + interval; next < stop {
				r.at(next, aroundTick)
			}
		}
		// New queued the first tick already, so the first probe to run
		// ahead of its tick is the second tick's.
		if 2*interval < stop {
			r.at(2*interval, aroundTick)
		}
	}
	r.eng.RunUntil(stop)
	// The refresh ticker never stops, so run in steps until the backlog
	// is gone.
	for i := 0; i < 100 && r.mc.ReadQueueLen()+r.mc.WriteQueueLen()+len(r.mc.readWaiters)+len(r.mc.writeWaiters) > 0; i++ {
		r.eng.RunUntil(r.eng.Now() + sim.Time(r.tm.TREFIab))
	}
	// The last issued requests' completion events are still pending.
	r.eng.RunUntil(r.eng.Now() + sim.Time(r.tm.TREFIab))
	return reqs
}

func compareIssueRuns(t *testing.T, seed int64, want, got *rig, wantReqs, gotReqs []*Request) {
	t.Helper()
	if len(wantReqs) != len(gotReqs) {
		t.Fatalf("seed %d: %d requests submitted, reference %d", seed, len(gotReqs), len(wantReqs))
	}
	if len(want.done) != len(wantReqs) {
		t.Fatalf("seed %d: reference completed %d of %d requests", seed, len(want.done), len(wantReqs))
	}
	for i, w := range want.done {
		if i >= len(got.done) || got.done[i] != w {
			var g completion
			if i < len(got.done) {
				g = got.done[i]
			}
			t.Fatalf("seed %d: completion %d finished request %d at %d; reference request %d at %d",
				seed, i, g.miss, g.at, w.miss, w.at)
		}
	}
	if len(got.done) != len(want.done) {
		t.Fatalf("seed %d: %d completions, reference %d", seed, len(got.done), len(want.done))
	}
	for i, w := range wantReqs {
		if g := gotReqs[i]; g.RefreshStalled != w.RefreshStalled {
			t.Fatalf("seed %d: request %d stalled %v, reference %v", seed, i, g.RefreshStalled, w.RefreshStalled)
		}
	}
	if got.mc.Stats != want.mc.Stats {
		t.Errorf("seed %d: stats\n%+v\nreference\n%+v", seed, got.mc.Stats, want.mc.Stats)
	}
	if got.mc.PolicyStats != want.mc.PolicyStats {
		t.Errorf("seed %d: policy stats %+v, reference %+v", seed, got.mc.PolicyStats, want.mc.PolicyStats)
	}
	for g := 0; g < want.ch.TotalBanks(); g++ {
		if gs, ws := got.ch.Bank(g).Stats, want.ch.Bank(g).Stats; gs != ws {
			t.Errorf("seed %d: bank %d stats %+v, reference %+v", seed, g, gs, ws)
		}
	}
	if got.eng.Executed != want.eng.Executed {
		t.Errorf("seed %d: %d engine events, reference %d", seed, got.eng.Executed, want.eng.Executed)
	}
	if gs, ws := got.mc.State(), want.mc.State(); !reflect.DeepEqual(gs, ws) {
		t.Errorf("seed %d: controller state\n%+v\nreference\n%+v", seed, gs, ws)
	}
}
