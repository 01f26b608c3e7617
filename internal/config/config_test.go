package config

import "testing"

func TestDefaultValidates(t *testing.T) {
	for _, d := range Densities {
		cfg := Default(d, 64)
		if err := cfg.Validate(); err != nil {
			t.Errorf("Default(%s) invalid: %v", d, err)
		}
	}
}

func TestCyclesConversion(t *testing.T) {
	cfg := Default(Density32Gb, 1)
	// 1 ns at 3.2 GHz = 3.2 cycles, rounded up to 4.
	if got := cfg.Cycles(1); got != 4 {
		t.Fatalf("Cycles(1ns) = %d, want 4", got)
	}
	// 7.8 µs tREFI = 24960 cycles exactly.
	if got := cfg.TREFIab(); got != 24960 {
		t.Fatalf("TREFIab = %d, want 24960", got)
	}
	// 64 ms at 3.2 GHz.
	if got := cfg.TREFW(); got != 204800000 {
		t.Fatalf("TREFW = %d, want 204800000", got)
	}
}

func TestDensityParameters(t *testing.T) {
	want := map[Density]struct {
		trfc uint64
		rows uint64
	}{
		Density8Gb:  {1120, 128 * 1024}, // 350 ns
		Density16Gb: {1696, 256 * 1024}, // 530 ns
		Density24Gb: {2272, 384 * 1024}, // 710 ns
		Density32Gb: {2848, 512 * 1024}, // 890 ns
	}
	for d, w := range want {
		cfg := Default(d, 1)
		if got := cfg.TRFCab(); got != w.trfc {
			t.Errorf("%s TRFCab = %d, want %d", d, got, w.trfc)
		}
		if got := cfg.Mem.RowsPerBank(); got != w.rows {
			t.Errorf("%s RowsPerBank = %d, want %d", d, got, w.rows)
		}
		// Paper adopts tRFCab/tRFCpb = 2.3.
		ratio := float64(cfg.TRFCab()) / float64(cfg.TRFCpb())
		if ratio < 2.2 || ratio > 2.4 {
			t.Errorf("%s tRFC ratio = %v, want ~2.3", d, ratio)
		}
	}
}

// TestScaleInvariants checks the two properties the Scale substitution
// must preserve: the refresh duty cycle and the timeslice == tREFW/banks
// alignment.
func TestScaleInvariants(t *testing.T) {
	ref := Default(Density32Gb, 1)
	for _, scale := range []uint64{1, 16, 64, 256} {
		cfg := Default(Density32Gb, scale)
		// ns-scale parameters are unscaled.
		if cfg.TRFCab() != ref.TRFCab() {
			t.Fatalf("scale %d changed tRFC", scale)
		}
		if cfg.TREFIab() != ref.TREFIab() {
			t.Fatalf("scale %d changed tREFI", scale)
		}
		// ms-scale parameters both shrink by the same factor, so the
		// quantum stays aligned with the per-bank refresh slot.
		banks := uint64(cfg.Mem.BanksPerChannel())
		slot := cfg.TREFW() / banks
		ts := cfg.Timeslice()
		if slot != ts {
			t.Fatalf("scale %d: slot %d != timeslice %d", scale, slot, ts)
		}
	}
}

func TestHighTemp(t *testing.T) {
	cfg := HighTemp(Default(Density32Gb, 1))
	if cfg.Refresh.TREFWms != 32 || cfg.OS.TimesliceMS != 2 {
		t.Fatalf("HighTemp: tREFW=%v timeslice=%v", cfg.Refresh.TREFWms, cfg.OS.TimesliceMS)
	}
	// Alignment holds at 32 ms too: 32ms/16 banks = 2ms.
	banks := uint64(cfg.Mem.BanksPerChannel())
	if cfg.TREFW()/banks != cfg.Timeslice() {
		t.Fatal("32ms retention breaks slot/timeslice alignment")
	}
}

func TestMemConfigDerived(t *testing.T) {
	cfg := Default(Density32Gb, 1)
	m := cfg.Mem
	if m.Ranks() != 2 || m.BanksPerChannel() != 16 || m.TotalBanks() != 16 {
		t.Fatalf("geometry: ranks=%d bpc=%d total=%d", m.Ranks(), m.BanksPerChannel(), m.TotalBanks())
	}
	if m.BankCapacity() != 2*1024*1024*1024 {
		t.Fatalf("bank capacity = %d, want 2GB", m.BankCapacity())
	}
	if m.TotalCapacity() != 32*1024*1024*1024 {
		t.Fatalf("total capacity = %d, want 32GB", m.TotalCapacity())
	}
}

func TestValidateRejects(t *testing.T) {
	break_ := func(f func(*System)) System {
		cfg := Default(Density32Gb, 64)
		f(&cfg)
		return cfg
	}
	bad := map[string]System{
		"zero cores":     break_(func(c *System) { c.Cores = 0 }),
		"zero scale":     break_(func(c *System) { c.Scale = 0 }),
		"zero freq":      break_(func(c *System) { c.CPUFreqGHz = 0 }),
		"zero mlp":       break_(func(c *System) { c.MLP = 0 }),
		"bad row bytes":  break_(func(c *System) { c.Mem.RowBytes = 3000 }),
		"line mismatch":  break_(func(c *System) { c.L1.LineBytes = 32 }),
		"bad density":    break_(func(c *System) { c.Mem.Density = 7 }),
		"bad watermarks": break_(func(c *System) { c.Mem.WriteLowWater = 60 }),
		"bad bpt":        break_(func(c *System) { c.OS.BanksPerTask = 99 }),
		"zero banks":     break_(func(c *System) { c.Mem.BanksPerRank = 0 }),
		"128 banks":      break_(func(c *System) { c.Mem.DIMMsPerChannel = 8 }),
	}
	for name, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", name)
		}
	}
}

func TestDensityString(t *testing.T) {
	if Density32Gb.String() != "32Gb" {
		t.Fatalf("String() = %q", Density32Gb.String())
	}
}
