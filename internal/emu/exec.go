package emu

import (
	"math"

	"spear/internal/isa"
)

// Regs is a SPISA register file: r0..r31 then f0..f31, each held as its
// 64-bit pattern. Exec never writes r0, so it reads as zero. An integer
// read of an FP register sees its bit pattern, and an FP read of an
// integer register reinterprets its bits; a malformed program stays total.
type Regs [isa.NumRegs]uint64

// Int reads register x as a signed integer.
func (r *Regs) Int(x isa.Reg) int64 { return int64(r[x]) }

// Float reads register x as a double.
func (r *Regs) Float(x isa.Reg) float64 { return math.Float64frombits(r[x]) }

// Memory is the data memory an instruction executes against: the
// architectural image (*mem.Memory) or a speculative view of it. Values
// are little-endian and size is 1, 2, 4 or 8 bytes.
type Memory interface {
	Load(addr uint32, size int) uint64
	Store(addr uint32, size int, v uint64)
}

// Effect is the outcome of one instruction: its successor, its memory
// access and its register write.
type Effect struct {
	NextPC int  // architectural successor
	Taken  bool // conditional branch outcome
	Halt   bool
	IsMem  bool
	Addr   uint32 // effective address when IsMem

	// Destination outcome: the register written and its new bits (int and
	// FP results alike). HasDest is false for writes to r0, which are
	// dropped.
	HasDest bool
	DestReg isa.Reg
	DestVal uint64
}

// Exec executes in, the instruction at index pc, against r and m and
// stores its effect in e. It is the only definition of SPISA's semantics.
// An integer DIV or REM by zero yields 0. It returns false, with r and m
// untouched, only for an opcode it cannot execute.
//
// The effect is stored through e rather than returned: the emulator hands
// Exec the Event it passes to its hook, and copying a returned Effect into
// it costs a store-forwarding stall on every instruction.
func Exec(in isa.Instruction, pc int, r *Regs, m Memory, e *Effect) bool {
	*e = Effect{NextPC: pc + 1}
	a, b := r.Int(in.Rs), r.Int(in.Rt)
	fa, fb := r.Float(in.Rs), r.Float(in.Rt)
	if in.Op.IsMem() {
		e.IsMem, e.Addr = true, uint32(a+int64(in.Imm))
	}
	var v uint64 // destination bits, written if in.Dest() names a register
	switch in.Op {
	case isa.NOP:
	case isa.HALT:
		e.Halt, e.NextPC = true, pc

	case isa.ADD:
		v = uint64(a + b)
	case isa.SUB:
		v = uint64(a - b)
	case isa.MUL:
		v = uint64(a * b)
	case isa.DIV:
		if b != 0 {
			v = uint64(a / b)
		}
	case isa.REM:
		if b != 0 {
			v = uint64(a % b)
		}
	case isa.AND:
		v = uint64(a & b)
	case isa.OR:
		v = uint64(a | b)
	case isa.XOR:
		v = uint64(a ^ b)
	case isa.SLL:
		v = uint64(a << (uint64(b) & 63))
	case isa.SRL:
		v = uint64(a) >> (uint64(b) & 63)
	case isa.SRA:
		v = uint64(a >> (uint64(b) & 63))
	case isa.SLT:
		v = b2u(a < b)
	case isa.SLTU:
		v = b2u(uint64(a) < uint64(b))

	case isa.ADDI:
		v = uint64(a + int64(in.Imm))
	case isa.ANDI:
		v = uint64(a & int64(in.Imm))
	case isa.ORI:
		v = uint64(a | int64(in.Imm))
	case isa.XORI:
		v = uint64(a ^ int64(in.Imm))
	case isa.SLLI:
		v = uint64(a << (uint32(in.Imm) & 63))
	case isa.SRLI:
		v = uint64(a) >> (uint32(in.Imm) & 63)
	case isa.SRAI:
		v = uint64(a >> (uint32(in.Imm) & 63))
	case isa.SLTI:
		v = b2u(a < int64(in.Imm))
	case isa.LUI:
		v = uint64(int64(in.Imm) << 16)

	case isa.LB:
		v = uint64(int64(int8(m.Load(e.Addr, 1))))
	case isa.LBU:
		v = m.Load(e.Addr, 1)
	case isa.LH:
		v = uint64(int64(int16(m.Load(e.Addr, 2))))
	case isa.LW:
		v = uint64(int64(int32(m.Load(e.Addr, 4))))
	case isa.LD, isa.FLD:
		v = m.Load(e.Addr, 8)
	case isa.SB, isa.SH, isa.SW, isa.SD, isa.FSD:
		m.Store(e.Addr, in.Op.AccessSize(), r[in.Rt])

	case isa.BEQ:
		e.Taken = a == b
	case isa.BNE:
		e.Taken = a != b
	case isa.BLT:
		e.Taken = a < b
	case isa.BGE:
		e.Taken = a >= b
	case isa.BLTU:
		e.Taken = uint64(a) < uint64(b)
	case isa.BGEU:
		e.Taken = uint64(a) >= uint64(b)
	case isa.J:
		e.NextPC = int(in.Imm)
	case isa.JAL:
		v, e.NextPC = uint64(pc+1), int(in.Imm)
	case isa.JR:
		e.NextPC = int(a)
	case isa.JALR:
		v, e.NextPC = uint64(pc+1), int(a)

	case isa.FADD:
		v = math.Float64bits(fa + fb)
	case isa.FSUB:
		v = math.Float64bits(fa - fb)
	case isa.FMUL:
		v = math.Float64bits(fa * fb)
	case isa.FDIV:
		v = math.Float64bits(fa / fb)
	case isa.FSQRT:
		v = math.Float64bits(math.Sqrt(fa))
	case isa.FNEG:
		v = math.Float64bits(-fa)
	case isa.FABS:
		v = math.Float64bits(math.Abs(fa))
	case isa.FMOV:
		v = math.Float64bits(fa)
	case isa.CVTLD:
		v = math.Float64bits(float64(a))
	case isa.CVTDL:
		if !math.IsNaN(fa) {
			v = uint64(int64(fa))
		}
	case isa.FEQ:
		v = b2u(fa == fb)
	case isa.FLT:
		v = b2u(fa < fb)
	case isa.FLE:
		v = b2u(fa <= fb)

	default:
		return false
	}
	if e.Taken {
		e.NextPC = int(in.Imm)
	}
	if rd, ok := in.Dest(); ok {
		r[rd] = v
		e.HasDest, e.DestReg, e.DestVal = true, rd, v
	}
	return true
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
