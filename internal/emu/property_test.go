package emu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spear/internal/isa"
	"spear/internal/prog"
)

// Property tests comparing single-instruction execution against directly
// computed Go semantics.

func execOne(t *testing.T, in isa.Instruction, r1, r2 int64) *Machine {
	t.Helper()
	p := &prog.Program{
		Name:  "prop",
		Text:  []isa.Instruction{in, {Op: isa.HALT}},
		Entry: 0,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m := New(p)
	m.Regs[1], m.Regs[2] = uint64(r1), uint64(r2)
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestALUQuickProperties(t *testing.T) {
	type alu struct {
		op isa.Op
		f  func(a, b int64) int64
	}
	ops := []alu{
		{isa.ADD, func(a, b int64) int64 { return a + b }},
		{isa.SUB, func(a, b int64) int64 { return a - b }},
		{isa.MUL, func(a, b int64) int64 { return a * b }},
		{isa.AND, func(a, b int64) int64 { return a & b }},
		{isa.OR, func(a, b int64) int64 { return a | b }},
		{isa.XOR, func(a, b int64) int64 { return a ^ b }},
		{isa.SLT, func(a, b int64) int64 {
			if a < b {
				return 1
			}
			return 0
		}},
		{isa.SLTU, func(a, b int64) int64 {
			if uint64(a) < uint64(b) {
				return 1
			}
			return 0
		}},
		{isa.SLL, func(a, b int64) int64 { return a << (uint64(b) & 63) }},
		{isa.SRL, func(a, b int64) int64 { return int64(uint64(a) >> (uint64(b) & 63)) }},
		{isa.SRA, func(a, b int64) int64 { return a >> (uint64(b) & 63) }},
	}
	for _, o := range ops {
		o := o
		f := func(a, b int64) bool {
			m := execOne(t, isa.Instruction{Op: o.op, Rd: 3, Rs: 1, Rt: 2}, a, b)
			return m.Reg(3) == o.f(a, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%v: %v", o.op, err)
		}
	}
}

func TestDivRemInvariant(t *testing.T) {
	// For non-zero divisors, a == (a/b)*b + a%b.
	f := func(a, b int64) bool {
		if b == 0 {
			b = 1
		}
		if a == -1<<63 && b == -1 {
			return true // Go overflow case; the emulator inherits it
		}
		md := execOne(t, isa.Instruction{Op: isa.DIV, Rd: 3, Rs: 1, Rt: 2}, a, b)
		mr := execOne(t, isa.Instruction{Op: isa.REM, Rd: 3, Rs: 1, Rt: 2}, a, b)
		return md.Reg(3)*b+mr.Reg(3) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMemoryRoundTripQuick(t *testing.T) {
	// SD then LD at a random address returns the stored value.
	f := func(v int64, addrSeed uint32) bool {
		addr := int32(0x0010_0000 + (addrSeed % 65536))
		p := &prog.Program{
			Name: "mem",
			Text: []isa.Instruction{
				{Op: isa.SD, Rs: 0, Rt: 1, Imm: addr},
				{Op: isa.LD, Rd: 3, Rs: 0, Imm: addr},
				{Op: isa.HALT},
			},
		}
		m := New(p)
		m.Regs[1] = uint64(v)
		if err := m.Run(10); err != nil {
			return false
		}
		return m.Reg(3) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBranchTakenMatchesComparison: branch direction equals the
// corresponding comparison for random operands.
func TestBranchTakenMatchesComparison(t *testing.T) {
	cases := []struct {
		op  isa.Op
		cmp func(a, b int64) bool
	}{
		{isa.BEQ, func(a, b int64) bool { return a == b }},
		{isa.BNE, func(a, b int64) bool { return a != b }},
		{isa.BLT, func(a, b int64) bool { return a < b }},
		{isa.BGE, func(a, b int64) bool { return a >= b }},
		{isa.BLTU, func(a, b int64) bool { return uint64(a) < uint64(b) }},
		{isa.BGEU, func(a, b int64) bool { return uint64(a) >= uint64(b) }},
	}
	r := rand.New(rand.NewSource(3))
	for _, c := range cases {
		for i := 0; i < 200; i++ {
			a, b := r.Int63()-r.Int63(), r.Int63()-r.Int63()
			if i%5 == 0 {
				b = a // exercise equality often
			}
			p := &prog.Program{
				Name: "br",
				Text: []isa.Instruction{
					{Op: c.op, Rs: 1, Rt: 2, Imm: 3},     // taken -> pc 3
					{Op: isa.ADDI, Rd: 3, Rs: 0, Imm: 1}, // fallthrough marker
					{Op: isa.HALT},
					{Op: isa.ADDI, Rd: 3, Rs: 0, Imm: 2}, // taken marker
					{Op: isa.HALT},
				},
			}
			m := New(p)
			m.Regs[1], m.Regs[2] = uint64(a), uint64(b)
			if err := m.Run(10); err != nil {
				t.Fatal(err)
			}
			want := int64(1)
			if c.cmp(a, b) {
				want = 2
			}
			if m.Reg(3) != want {
				t.Fatalf("%v(%d,%d): marker %d, want %d", c.op, a, b, m.Reg(3), want)
			}
		}
	}
}
