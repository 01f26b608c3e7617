package refresh

import (
	"testing"

	"refsched/internal/config"
	"refsched/internal/sim"
)

func TestPerBankSARotatesBanksThenSubarrays(t *testing.T) {
	g := geo(t, 64)
	g.Subarrays = 4
	p := NewPerBankSA(g, 4)
	st := stateOf(p)
	total := g.TotalBanks()
	// First sweep: every bank at subarray 0; second sweep: subarray 1.
	for b := 0; b < total; b++ {
		tgt := p.Next(0, nil, st)
		if tgt.GlobalBank != b || tgt.Subarray != 0 || !tgt.SubarrayLevel {
			t.Fatalf("sweep 0 target %+v, want bank %d sub 0", tgt, b)
		}
	}
	tgt := p.Next(0, nil, st)
	if tgt.GlobalBank != 0 || tgt.Subarray != 1 {
		t.Fatalf("sweep 1 target %+v", tgt)
	}
}

func TestPerBankSACoverage(t *testing.T) {
	g := geo(t, 64)
	g.Subarrays = 4
	p := NewPerBankSA(g, 4)
	st := stateOf(p)
	interval := p.Interval(st)
	rows := make([]uint64, g.TotalBanks())
	for tick := uint64(0); tick*interval < g.Timing.TREFW; tick++ {
		tgt := p.Next(sim.Time(tick*interval), nil, st)
		rows[tgt.GlobalBank] += tgt.Rows
	}
	for b, r := range rows {
		if r < g.Timing.RowsPerBank {
			t.Errorf("bank %d covered %d rows per window, want >= %d", b, r, g.Timing.RowsPerBank)
		}
	}
}

func TestPerBankSAIntervalScales(t *testing.T) {
	g := geo(t, 64)
	pb := NewPerBankRR(g)
	sa := NewPerBankSA(g, 8)
	if sa.interval != pb.interval/8 {
		t.Fatalf("SA interval %d, per-bank %d", sa.interval, pb.interval)
	}
}

func TestNewRequiresSubarrays(t *testing.T) {
	g := geo(t, 64)
	if _, _, err := New(config.RefreshPerBankSA, g); err == nil {
		t.Fatal("perbanksa accepted without subarrays")
	}
	g.Subarrays = 8
	s, _, err := New(config.RefreshPerBankSA, g)
	if err != nil {
		t.Fatal(err)
	}
	if sa, ok := s.(*PerBankSA); !ok || sa.subs != 8 {
		t.Fatalf("New(perbanksa) built %#v, want a PerBankSA over 8 subarrays", s)
	}
}
