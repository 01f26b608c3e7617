package kernel

import (
	"testing"

	"refsched/internal/cache"
	"refsched/internal/config"
	"refsched/internal/cpu"
	"refsched/internal/dram"
	"refsched/internal/kernel/buddy"
	"refsched/internal/mc"
	"refsched/internal/refresh"
	"refsched/internal/sim"
	"refsched/internal/workload"
)

// fixedPlanner is a stub SlotPlanner.
type fixedPlanner struct{ slot uint64 }

func (p fixedPlanner) BankAtTime(t sim.Time) int { return int(uint64(t) / p.slot % 16) }
func (p fixedPlanner) SlotCycles() uint64        { return p.slot }

// nullMem satisfies cpu.Memory for cores that never miss.
type nullMem struct{}

func (nullMem) SubmitRead(r *mc.Request) bool   { return true }
func (nullMem) WhenReadSpace(int, *mc.Request)  {}
func (nullMem) SubmitWrite(r *mc.Request) bool  { return true }
func (nullMem) WhenWriteSpace(int, *mc.Request) {}
func (nullMem) NewRequest(uint64) *mc.Request   { return new(mc.Request) }

func rig(t *testing.T, cfg config.System, ncores int, planner refresh.SlotPlanner) (*Kernel, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	mapper, err := dram.NewMapper(cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	bud, err := buddy.New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	alloc := buddy.NewPartitionAllocator(bud, mapper)
	var cores []*cpu.Core
	for i := 0; i < ncores; i++ {
		hier, err := cache.NewHierarchy(cfg.L1, cfg.L2)
		if err != nil {
			t.Fatal(err)
		}
		cores = append(cores, cpu.NewCore(i, eng, nullMem{}, hier, cfg.BaseCPI, cfg.MLP, cfg.ROB))
	}
	k := New(eng, &cfg, alloc, mapper, cores, planner)
	// Stand-in for the system dispatcher (core.System.execPayload).
	eng.SetExec(func(p sim.Payload) {
		switch p.Kind {
		case sim.KindCPUSubmitRead, sim.KindCPUSubmitWrite, sim.KindCPUQuantumEnd:
			cores[p.A].Exec(p)
		default:
			k.Exec(p)
		}
	})
	return k, eng
}

// hotGen is a trivial always-hitting generator.
type hotGen struct{}

func (hotGen) Next() (uint64, workload.Access) {
	return 100, workload.Access{VAddr: 0x1000}
}

func addTasks(k *Kernel, n int) {
	for i := 0; i < n; i++ {
		k.AddTask(workload.Benchmark{Name: "t"}, hotGen{})
	}
}

func TestAssignMasksSoftGroups(t *testing.T) {
	cfg := config.Default(config.Density8Gb, 2048)
	cfg.OS.Alloc = config.AllocSoftPartition
	cfg.OS.BanksPerTask = 6
	k, _ := rig(t, cfg, 2, nil)
	addTasks(k, 8)
	k.AssignMasks()

	nb := cfg.Mem.BanksPerRank
	total := nb * cfg.Mem.Ranks()
	for _, task := range k.Tasks() {
		m := task.Ent.Mask
		// 6 of 8 bank indices allowed, in both ranks -> 12 banks.
		if m.Count() != 12 {
			t.Fatalf("task %d mask has %d banks, want 12", task.ID(), m.Count())
		}
		// Exclusions are rank-symmetric.
		for b := 0; b < nb; b++ {
			if m.Has(b) != m.Has(nb+b) {
				t.Fatalf("task %d mask not rank-symmetric at bank %d", task.ID(), b)
			}
		}
	}
	// The co-design property: for every global bank, each CPU's initial
	// task set (i%cores) contains at least one task excluding it.
	for g := 0; g < total; g++ {
		for cpuID := 0; cpuID < 2; cpuID++ {
			ok := false
			for i, task := range k.Tasks() {
				if i%2 == cpuID && !task.Ent.Mask.Has(g) {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("bank %d has no excluding task on cpu %d", g, cpuID)
			}
		}
	}
}

func TestAssignMasksHardExclusive(t *testing.T) {
	cfg := config.Default(config.Density8Gb, 2048)
	cfg.OS.Alloc = config.AllocHardPartition
	k, _ := rig(t, cfg, 2, nil)
	addTasks(k, 8)
	k.AssignMasks()
	// 16 banks / 8 tasks = 2 exclusive banks each, no overlap.
	var union buddy.BankMask
	for _, task := range k.Tasks() {
		m := task.Ent.Mask
		if m.Count() != 2 {
			t.Fatalf("hard mask count = %d", m.Count())
		}
		if union&m != 0 {
			t.Fatal("hard partitions overlap")
		}
		union |= m
	}
}

func TestAssignMasksBaselineAllBanks(t *testing.T) {
	cfg := config.Default(config.Density8Gb, 2048)
	k, _ := rig(t, cfg, 2, nil)
	addTasks(k, 4)
	k.AssignMasks()
	for _, task := range k.Tasks() {
		if task.Ent.Mask.Count() != 16 {
			t.Fatal("baseline mask not full")
		}
	}
}

func TestAvoidMaskSingleAndMultiSlot(t *testing.T) {
	cfg := config.Default(config.Density8Gb, 2048)
	cfg.OS.RefreshAware = true
	k, _ := rig(t, cfg, 2, fixedPlanner{slot: 1000})
	// Window within one slot.
	m := k.avoidMask(0, 1000)
	if m.Count() != 1 || !m.Has(0) {
		t.Fatalf("single-slot avoid = %b", m)
	}
	// Window spanning two slots.
	m = k.avoidMask(500, 2500)
	if m.Count() != 3 || !m.Has(0) || !m.Has(1) || !m.Has(2) {
		t.Fatalf("multi-slot avoid = %b", m)
	}
}

func TestAvoidMaskDisabled(t *testing.T) {
	cfg := config.Default(config.Density8Gb, 2048)
	cfg.OS.RefreshAware = false
	k, _ := rig(t, cfg, 2, fixedPlanner{slot: 1000})
	if k.avoidMask(0, 1000) != 0 {
		t.Fatal("avoid mask nonzero with awareness off")
	}
	k2, _ := rig(t, cfg, 2, nil)
	k2.cfg.OS.RefreshAware = true
	if k2.avoidMask(0, 1000) != 0 {
		t.Fatal("avoid mask nonzero without a planner")
	}
}

func TestDispatchRunsQuantaOnGrid(t *testing.T) {
	cfg := config.Default(config.Density8Gb, 2048)
	cfg.OS.CtxSwitchCycles = 0
	k, eng := rig(t, cfg, 2, nil)
	addTasks(k, 4)
	k.AssignMasks()
	k.Start()
	q := cfg.Timeslice()
	eng.RunUntil(sim.Time(q*8 + q/2))
	// 8 full quanta per core have elapsed (the in-flight 9th is pending).
	if k.Stats.Quanta < 16 {
		t.Fatalf("quanta = %d, want >= 16", k.Stats.Quanta)
	}
	// Every task made progress and shared time roughly equally.
	var minQ, maxQ uint64 = 1 << 62, 0
	for _, task := range k.Tasks() {
		qn := task.Stats().Quanta
		if qn < minQ {
			minQ = qn
		}
		if qn > maxQ {
			maxQ = qn
		}
	}
	if minQ == 0 || maxQ-minQ > 1 {
		t.Fatalf("quantum distribution %d..%d unfair", minQ, maxQ)
	}
}

func TestDispatchIdlesWithoutTasks(t *testing.T) {
	cfg := config.Default(config.Density8Gb, 2048)
	k, eng := rig(t, cfg, 1, nil)
	k.Start()
	eng.RunUntil(sim.Time(cfg.Timeslice() * 3))
	if k.Stats.IdleQuanta < 2 {
		t.Fatalf("idle quanta = %d", k.Stats.IdleQuanta)
	}
}

func TestTranslateFaultsAndMaps(t *testing.T) {
	cfg := config.Default(config.Density8Gb, 2048)
	cfg.OS.PageFaultCycles = 123
	k, _ := rig(t, cfg, 1, nil)
	addTasks(k, 1)
	k.AssignMasks()
	task := k.Tasks()[0]
	paddr, penalty := task.Translate(0x5000)
	if penalty != 123 {
		t.Fatalf("fault penalty = %d", penalty)
	}
	paddr2, penalty2 := task.Translate(0x5008)
	if penalty2 != 0 {
		t.Fatal("second touch faulted")
	}
	if paddr2 != paddr+8 {
		t.Fatalf("offsets inconsistent: %#x vs %#x", paddr, paddr2)
	}
	if task.AS.Faults() != 1 {
		t.Fatalf("faults = %d", task.AS.Faults())
	}
}

func TestBoundary(t *testing.T) {
	cfg := config.Default(config.Density8Gb, 2048)
	k, _ := rig(t, cfg, 1, nil)
	q := sim.Time(cfg.Timeslice())
	if k.boundary(0) != q || k.boundary(q-1) != q || k.boundary(q) != 2*q {
		t.Fatalf("boundary math wrong: %d %d %d", k.boundary(0), k.boundary(q-1), k.boundary(q))
	}
}
