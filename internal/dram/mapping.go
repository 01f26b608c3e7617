package dram

import (
	"fmt"
	"math/bits"

	"refsched/internal/config"
)

// Coord identifies a physical DRAM location.
type Coord struct {
	Channel int
	Rank    int
	Bank    int
	Row     uint64
	Col     uint64 // byte offset within the row
}

// GlobalBank returns the flat bank index within the coordinate's channel:
// rank*banksPerRank + bank. This is the index Algorithm 1 and the OS
// possible-banks vectors use.
func (c Coord) GlobalBank(banksPerRank int) int {
	return c.Rank*banksPerRank + c.Bank
}

// Mapper translates physical byte addresses to DRAM coordinates.
//
// Bit layout (LSB first): row-offset | channel | bank | rank | row.
// Because the row size equals the OS page size (4 KB), each physical page
// occupies exactly one DRAM row, and consecutive page frames interleave
// channels first, then banks, then ranks — the bank-level-parallelism-
// friendly mapping the paper assumes. The OS sees this mapping through
// PageBank/PageCoord, which is precisely the "hardware address-mapping
// exposed to the OS" part of the co-design.
type Mapper struct {
	rowBytes     uint64
	offsetBits   uint
	channelBits  uint
	bankBits     uint
	rankBits     uint
	channels     int
	banksPerRank int
	ranks        int
	rowsPerBank  uint64
	// globalBankMask selects a frame's rank and bank bits once shifted
	// past the channel bits: ranks*banksPerRank - 1.
	globalBankMask uint64
}

// NewMapper builds a mapper for the configured geometry. All geometry
// values must be powers of two except rows per bank.
func NewMapper(mem config.MemConfig) (*Mapper, error) {
	for _, v := range []struct {
		name string
		n    int
	}{
		{"Channels", mem.Channels},
		{"BanksPerRank", mem.BanksPerRank},
		{"Ranks", mem.Ranks()},
	} {
		if v.n <= 0 || v.n&(v.n-1) != 0 {
			return nil, fmt.Errorf("dram: %s must be a power of two, got %d", v.name, v.n)
		}
	}
	return &Mapper{
		rowBytes:     mem.RowBytes,
		offsetBits:   uint(bits.TrailingZeros64(mem.RowBytes)),
		channelBits:  uint(bits.Len(uint(mem.Channels) - 1)),
		bankBits:     uint(bits.Len(uint(mem.BanksPerRank) - 1)),
		rankBits:     uint(bits.Len(uint(mem.Ranks()) - 1)),
		channels:     mem.Channels,
		banksPerRank: mem.BanksPerRank,
		ranks:        mem.Ranks(),
		rowsPerBank:  mem.RowsPerBank(),

		globalBankMask: uint64(mem.Ranks()*mem.BanksPerRank - 1),
	}, nil
}

// Decode splits a physical address into its DRAM coordinate.
func (m *Mapper) Decode(addr uint64) Coord {
	col := addr & (m.rowBytes - 1)
	pfn := addr >> m.offsetBits
	ch := int(pfn) & (m.channels - 1)
	pfn >>= m.channelBits
	bank := int(pfn) & (m.banksPerRank - 1)
	pfn >>= m.bankBits
	rank := int(pfn) & (m.ranks - 1)
	row := pfn >> m.rankBits
	return Coord{Channel: ch, Rank: rank, Bank: bank, Row: row, Col: col}
}

// Encode produces the physical address of a coordinate (inverse of Decode
// for col < rowBytes).
func (m *Mapper) Encode(c Coord) uint64 {
	pfn := c.Row
	pfn = pfn<<m.rankBits | uint64(c.Rank)
	pfn = pfn<<m.bankBits | uint64(c.Bank)
	pfn = pfn<<m.channelBits | uint64(c.Channel)
	return pfn<<m.offsetBits | c.Col
}

// PageCoord returns the coordinate of a page frame number (its row has
// Col 0). One page == one row under this mapping.
func (m *Mapper) PageCoord(pfn uint64) Coord {
	return m.Decode(pfn << m.offsetBits)
}

// PageGlobalBank returns the flat (rank, bank) index of a page frame
// within its channel — the value the OS allocator files pages under.
// The rank bits sit directly above the bank bits, which sit directly
// above the channel bits, so rank*banksPerRank + bank is one shift and
// one mask (small enough for the compiler to inline into callers).
func (m *Mapper) PageGlobalBank(pfn uint64) int {
	return int((pfn >> m.channelBits) & m.globalBankMask)
}

// TotalPages returns the number of page frames in the system.
func (m *Mapper) TotalPages() uint64 {
	return uint64(m.channels) * uint64(m.ranks) * uint64(m.banksPerRank) * m.rowsPerBank
}

// BanksPerRank exposes the per-rank bank count for GlobalBank math.
func (m *Mapper) BanksPerRank() int { return m.banksPerRank }

// Ranks exposes the per-channel rank count.
func (m *Mapper) Ranks() int { return m.ranks }
