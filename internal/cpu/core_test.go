package cpu

import (
	"testing"

	"refsched/internal/cache"
	"refsched/internal/config"
	"refsched/internal/dram"
	"refsched/internal/mc"
	"refsched/internal/sim"
	"refsched/internal/workload"
)

// scriptTask replays a fixed list of segments (cycling at the end) and
// identity-translates addresses.
type scriptTask struct {
	id   int
	segs []struct {
		instrs uint64
		acc    workload.Access
	}
	pos    int
	pushed []struct {
		instrs uint64
		acc    workload.Access
	}
	stats TaskStats
}

func (s *scriptTask) ID() int { return s.id }
func (s *scriptTask) Next() (uint64, workload.Access) {
	if n := len(s.pushed); n > 0 {
		seg := s.pushed[n-1]
		s.pushed = s.pushed[:n-1]
		return seg.instrs, seg.acc
	}
	seg := s.segs[s.pos%len(s.segs)]
	s.pos++
	return seg.instrs, seg.acc
}
func (s *scriptTask) PushBack(instrs uint64, acc workload.Access) {
	s.pushed = append(s.pushed, struct {
		instrs uint64
		acc    workload.Access
	}{instrs, acc})
}
func (s *scriptTask) Translate(v uint64) (uint64, uint64) { return v, 0 }
func (s *scriptTask) Stats() *TaskStats                   { return &s.stats }

func seg(instrs uint64, addr uint64, write, dep bool) struct {
	instrs uint64
	acc    workload.Access
} {
	return struct {
		instrs uint64
		acc    workload.Access
	}{instrs, workload.Access{VAddr: addr, Write: write, Dependent: dep}}
}

// fakeMem satisfies Memory with a fixed service latency, recording
// requests and routing completions back via the owner words (the role
// the system dispatcher plays in the real machine).
type fakeMem struct {
	eng     *sim.Engine
	core    *Core
	latency uint64
	reads   []*mc.Request
	writes  []*mc.Request
	// rejectReads forces SubmitRead to fail until waiters are resubmitted.
	rejectReads bool
	readWaiters []*mc.Request
}

func (m *fakeMem) NewRequest(addr uint64) *mc.Request {
	return &mc.Request{Addr: addr, Coord: dram.Coord{Bank: int(addr>>12) & 7, Row: addr >> 15}}
}
func (m *fakeMem) SubmitRead(r *mc.Request) bool {
	if m.rejectReads {
		return false
	}
	m.reads = append(m.reads, r)
	m.eng.SchedulePAt(m.eng.Now()+m.latency, sim.Payload{Kind: sim.KindMCComplete,
		C: r.Owner.Miss, D: r.Owner.Epoch})
	return true
}
func (m *fakeMem) WhenReadSpace(_ int, r *mc.Request) { m.readWaiters = append(m.readWaiters, r) }
func (m *fakeMem) SubmitWrite(r *mc.Request) bool {
	m.writes = append(m.writes, r)
	return true
}
func (m *fakeMem) WhenWriteSpace(int, *mc.Request) {}

func newTestCore(t *testing.T, mem Memory, mlp int) *Core {
	t.Helper()
	fm := mem.(*fakeMem)
	hier, err := cache.NewHierarchy(
		config.CacheConfig{SizeBytes: 1024, Ways: 2, LineBytes: 64, HitLatency: 2},
		config.CacheConfig{SizeBytes: 8192, Ways: 4, LineBytes: 64, HitLatency: 20},
	)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCore(0, fm.eng, mem, hier, 1.0, mlp, 128)
	fm.core = c
	fm.eng.SetExec(func(p sim.Payload) {
		if p.Kind == sim.KindMCComplete {
			c.MissComplete(p.C, p.D)
			return
		}
		c.Exec(p)
	})
	return c
}

// runIdle runs eng until no event is pending, leaving the clock at the
// last one.
func runIdle(eng *sim.Engine) {
	for {
		st := eng.SnapshotState()
		if len(st.Events) == 0 {
			return
		}
		eng.RunUntil(st.Events[len(st.Events)-1].When)
	}
}

func TestCoreComputeOnlyIPC(t *testing.T) {
	eng := sim.NewEngine()
	mem := &fakeMem{eng: eng, latency: 100}
	c := newTestCore(t, mem, 8)
	// A task that computes 1000 instructions then touches one hot line.
	task := &scriptTask{segs: []struct {
		instrs uint64
		acc    workload.Access
	}{seg(1000, 0x100, false, false)}}

	endAt := sim.Time(0)
	c.Run(task, 100000, func(_ *Core, at sim.Time) { endAt = at })
	runIdle(eng)
	if endAt < 100000 {
		t.Fatalf("quantum ended at %d, want >= 100000", endAt)
	}
	ipc := task.stats.IPC()
	// CPI 1.0 with rare misses: IPC just under 1.
	if ipc < 0.9 || ipc > 1.01 {
		t.Fatalf("IPC = %v, want ~1.0", ipc)
	}
	if task.stats.Quanta != 1 {
		t.Fatalf("quanta = %d", task.stats.Quanta)
	}
}

func TestCoreQuantumClipsRunahead(t *testing.T) {
	eng := sim.NewEngine()
	mem := &fakeMem{eng: eng, latency: 100}
	c := newTestCore(t, mem, 8)
	// Huge compute segment: must be clipped exactly at the boundary.
	task := &scriptTask{segs: []struct {
		instrs uint64
		acc    workload.Access
	}{seg(1<<30, 0x100, false, false)}}

	endAt := sim.Time(0)
	c.Run(task, 5000, func(_ *Core, at sim.Time) { endAt = at })
	runIdle(eng)
	if endAt != 5000 {
		t.Fatalf("clipped quantum ended at %d, want exactly 5000", endAt)
	}
	if task.stats.Instructions != 5000 { // CPI 1.0
		t.Fatalf("instructions = %d, want 5000", task.stats.Instructions)
	}
	if len(task.pushed) != 1 {
		t.Fatal("partial segment not pushed back")
	}
}

func TestCoreMissBlocksAtMLP(t *testing.T) {
	eng := sim.NewEngine()
	mem := &fakeMem{eng: eng, latency: 10000}
	c := newTestCore(t, mem, 2) // MLP 2
	// Each segment touches a distinct cold line -> every access misses.
	var segs []struct {
		instrs uint64
		acc    workload.Access
	}
	for i := 0; i < 64; i++ {
		segs = append(segs, seg(10, uint64(0x100000+i*4096), false, false))
	}
	task := &scriptTask{segs: segs}
	c.Run(task, 1<<30, nil)
	eng.RunUntil(5000)
	// Before any completions, exactly MLP misses are outstanding.
	if len(mem.reads) != 2 {
		t.Fatalf("outstanding reads = %d, want MLP=2", len(mem.reads))
	}
	eng.RunUntil(15000) // first completion at 10000 frees one slot
	if len(mem.reads) < 3 {
		t.Fatalf("after first completion, reads = %d, want more issued", len(mem.reads))
	}
	if task.stats.MemStall == 0 {
		t.Fatal("no memory stall recorded despite MLP blocking")
	}
}

func TestCoreDependentSerializes(t *testing.T) {
	eng := sim.NewEngine()
	mem := &fakeMem{eng: eng, latency: 1000}
	c := newTestCore(t, mem, 8)
	var segs []struct {
		instrs uint64
		acc    workload.Access
	}
	for i := 0; i < 8; i++ {
		segs = append(segs, seg(1, uint64(0x200000+i*4096), false, true))
	}
	task := &scriptTask{segs: segs}
	c.Run(task, 20000, nil)
	eng.RunUntil(500)
	if len(mem.reads) != 1 {
		t.Fatalf("dependent chain issued %d reads at once, want 1", len(mem.reads))
	}
	eng.RunUntil(1500)
	if len(mem.reads) != 2 {
		t.Fatalf("after first load returned, reads = %d, want 2", len(mem.reads))
	}
	// Each link costs ~latency: after 8 full latencies all 8 links have
	// issued (the tiny L2 may re-miss early links, so >= 8).
	eng.RunUntil(8 * 1100)
	if len(mem.reads) < 8 {
		t.Fatalf("chain incomplete: %d reads", len(mem.reads))
	}
}

func TestCoreStoreMissDoesNotBlockRetirement(t *testing.T) {
	eng := sim.NewEngine()
	mem := &fakeMem{eng: eng, latency: 100000}
	c := newTestCore(t, mem, 8)
	segs := []struct {
		instrs uint64
		acc    workload.Access
	}{
		seg(10, 0x300000, true, false), // store miss
		seg(1000, 0x100, false, false), // compute + hot line
	}
	task := &scriptTask{segs: segs}
	endAt := sim.Time(0)
	c.Run(task, 3000, func(_ *Core, at sim.Time) { endAt = at })
	runIdle(eng)
	// The store's 100k-cycle fill must not stall the 3000-cycle quantum.
	if endAt != 3000 {
		t.Fatalf("store miss stalled retirement: quantum ended %d", endAt)
	}
}

func TestCoreWritebacksGoToMemory(t *testing.T) {
	eng := sim.NewEngine()
	mem := &fakeMem{eng: eng, latency: 10}
	c := newTestCore(t, mem, 8)
	// Dirty many distinct lines mapping to the same tiny L2: evictions
	// must surface as posted writes.
	var segs []struct {
		instrs uint64
		acc    workload.Access
	}
	for i := 0; i < 64; i++ {
		segs = append(segs, seg(5, uint64(0x400000+i*8192), true, false))
	}
	task := &scriptTask{segs: segs}
	c.Run(task, 1<<20, nil)
	eng.RunUntil(1 << 20)
	if len(mem.writes) == 0 {
		t.Fatal("no writebacks reached memory")
	}
}

func TestCoreBackpressureRetries(t *testing.T) {
	eng := sim.NewEngine()
	mem := &fakeMem{eng: eng, latency: 50, rejectReads: true}
	c := newTestCore(t, mem, 8)
	task := &scriptTask{segs: []struct {
		instrs uint64
		acc    workload.Access
	}{seg(1, 0x500000, false, true)}}
	c.Run(task, 5000, nil)
	eng.RunUntil(100)
	if len(mem.reads) != 0 || len(mem.readWaiters) == 0 {
		t.Fatalf("reject path: reads=%d waiters=%d", len(mem.reads), len(mem.readWaiters))
	}
	// Open the queue and resubmit waiters: the read must land.
	mem.rejectReads = false
	for _, r := range mem.readWaiters {
		mem.SubmitRead(r)
	}
	eng.RunUntil(1000)
	if len(mem.reads) != 1 {
		t.Fatalf("retry failed: reads=%d", len(mem.reads))
	}
}

func TestCoreEpochIgnoresStaleCompletions(t *testing.T) {
	eng := sim.NewEngine()
	mem := &fakeMem{eng: eng, latency: 10000}
	c := newTestCore(t, mem, 1)
	task1 := &scriptTask{id: 1, segs: []struct {
		instrs uint64
		acc    workload.Access
	}{seg(1, 0x600000, false, true)}}
	c.Run(task1, 1<<20, nil)
	eng.RunUntil(5) // task1 blocked on its dependent miss

	// Preempt by running a fresh task; task1's completion at t=10000
	// must not resume the new task incorrectly.
	task2 := &scriptTask{id: 2, segs: []struct {
		instrs uint64
		acc    workload.Access
	}{seg(100, 0x100, false, false)}}
	endAt := sim.Time(0)
	c.Run(task2, 20000, func(_ *Core, at sim.Time) { endAt = at })
	runIdle(eng)
	if endAt != 20000 {
		t.Fatalf("task2 quantum ended at %d", endAt)
	}
	if task2.stats.Instructions == 0 {
		t.Fatal("task2 made no progress")
	}
}

func TestTaskStatsDerived(t *testing.T) {
	s := TaskStats{Instructions: 2000, CPUCycles: 1000, LLCMisses: 10}
	if s.IPC() != 2 {
		t.Fatalf("IPC = %v", s.IPC())
	}
	if s.MPKI() != 5 {
		t.Fatalf("MPKI = %v", s.MPKI())
	}
	var zero TaskStats
	if zero.IPC() != 0 || zero.MPKI() != 0 {
		t.Fatal("zero stats should divide safely")
	}
}
