package vm

import (
	"errors"
	"testing"

	"refsched/internal/config"
	"refsched/internal/dram"
	"refsched/internal/sim"
)

func rig(t *testing.T) (*AddressSpace, *dram.Mapper) {
	t.Helper()
	cfg := config.Default(config.Density8Gb, 1)
	mapper, err := dram.NewMapper(cfg.Mem)
	if err != nil {
		t.Fatal(err)
	}
	return NewAddressSpace(4096, mapper), mapper
}

func TestLookupMapRoundTrip(t *testing.T) {
	as, _ := rig(t)
	if _, ok := as.Lookup(0x12345); ok {
		t.Fatal("unmapped lookup succeeded")
	}
	paddr := as.Map(0x12345, 77)
	if want := uint64(77)<<12 | 0x345; paddr != want {
		t.Fatalf("Map returned %#x, want %#x", paddr, want)
	}
	got, ok := as.Lookup(0x12345)
	if !ok || got != paddr {
		t.Fatalf("Lookup = %#x ok=%v", got, ok)
	}
	// Same page, different offset.
	got2, ok := as.Lookup(0x12000)
	if !ok || got2 != 77<<12 {
		t.Fatalf("offset lookup = %#x", got2)
	}
	if as.Faults() != 1 {
		t.Fatalf("faults=%d", as.Faults())
	}
}

func TestBankAccounting(t *testing.T) {
	as, mapper := rig(t)
	// Map three pages on known banks.
	as.Map(0x1000, 0) // pfn 0 -> bank 0
	as.Map(0x2000, 1) // pfn 1 -> bank 1
	as.Map(0x3000, 17)
	b0 := mapper.PageGlobalBank(0)
	if as.BankOccupancy(b0) == 0 {
		t.Fatal("bank 0 occupancy not recorded")
	}
	sum := 0.0
	for g := 0; g < 16; g++ {
		sum += as.BankOccupancy(g)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("occupancies sum to %v, want 1", sum)
	}
}

// TestStateRoundTrip checks that a restored page table translates
// exactly as the captured one, including pages past the first fault's
// vpn and below it.
func TestStateRoundTrip(t *testing.T) {
	as, mapper := rig(t)
	vaddrs := []uint64{0x500000, 0x101000, 0x7ff000, 0x102000}
	for i, v := range vaddrs {
		as.Map(v, uint64(10+i))
	}
	back := NewAddressSpace(4096, mapper)
	back.SetState(as.State())
	for v := uint64(0); v < 0x900000; v += 0x1000 {
		want, wantOK := as.Lookup(v + 8)
		got, ok := back.Lookup(v + 8)
		if got != want || ok != wantOK {
			t.Fatalf("Lookup(%#x) = %#x,%v after restore, want %#x,%v", v+8, got, ok, want, wantOK)
		}
	}
	if back.Faults() != 4 || back.BankOccupancy(mapper.PageGlobalBank(10)) != as.BankOccupancy(mapper.PageGlobalBank(10)) {
		t.Fatal("restored accounting differs")
	}
}

// TestMapBeyondReachFaults checks that a page past MaxPages fails the
// run with a typed sim.Fault instead of growing the table.
func TestMapBeyondReachFaults(t *testing.T) {
	as, _ := rig(t)
	defer func() {
		f, ok := recover().(sim.Fault)
		if !ok {
			t.Fatalf("Map past the reach did not raise a sim.Fault")
		}
		var re *RangeError
		if !errors.As(f, &re) || re.VAddr != 0x7fff00001234 {
			t.Fatalf("fault = %v", f)
		}
		if len(as.frames) != 0 {
			t.Fatalf("table grew to %d entries", len(as.frames))
		}
	}()
	as.Map(0x7fff00001234, 1)
}

func TestEmptyOccupancy(t *testing.T) {
	as, _ := rig(t)
	if as.BankOccupancy(0) != 0 {
		t.Fatal("empty address space has nonzero occupancy")
	}
}
