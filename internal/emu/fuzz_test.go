package emu_test

import (
	"encoding/binary"
	"testing"

	"spear/internal/cpu"
	"spear/internal/emu"
	"spear/internal/isa"
	"spear/internal/mem"
)

// FuzzExec executes any word isa.Decode accepts on any register file. Exec
// must not panic, must keep r0 at zero and write only its reported
// destination; the p-thread's cpu.EvalP must either fault (changing
// nothing) or agree with Exec on the address and the destination.
// Fault injection reaches this input space: flip-opcode-bits puts
// arbitrary decoded words into the p-thread's instruction image.
func FuzzExec(f *testing.F) {
	fregs := func(vals ...uint64) []byte {
		b := make([]byte, 8*isa.NumRegs)
		for i := 0; i+1 < len(vals); i += 2 {
			binary.LittleEndian.PutUint64(b[8*vals[i]:], vals[i+1])
		}
		return b
	}
	const buf = 0x10_0000
	for _, c := range []struct {
		in   isa.Instruction
		regs []byte
	}{
		{isa.Instruction{Op: isa.ADD, Rd: 1, Rs: isa.FP0 + 3, Rt: 2}, fregs(35, buf, 2, 8)},
		{isa.Instruction{Op: isa.LD, Rd: 1, Rs: isa.FP0 + 3}, fregs(35, buf)},
		{isa.Instruction{Op: isa.FADD, Rd: 0, Rs: isa.FP0 + 1, Rt: isa.FP0 + 2}, fregs(33, 0x3FF8000000000000, 34, 0x4000000000000000)},
		{isa.Instruction{Op: isa.FMOV, Rd: isa.FP0 + 4, Rs: 0}, fregs()},
		{isa.Instruction{Op: isa.DIV, Rd: 3, Rs: 1, Rt: 2}, fregs(1, 7)},
		{isa.Instruction{Op: isa.FSD, Rs: 1, Rt: isa.FP0 + 5, Imm: 8}, fregs(1, buf, 37, 0x7FF8000000000001)},
	} {
		f.Add(isa.Encode(c.in), uint16(3), c.regs)
	}
	f.Fuzz(func(t *testing.T, w uint64, pc uint16, regs []byte) {
		in, err := isa.Decode(w)
		if err != nil {
			return
		}
		var r emu.Regs
		for i := 1; i < isa.NumRegs && 8*i+8 <= len(regs); i++ {
			r[i] = binary.LittleEndian.Uint64(regs[8*i:])
		}
		img := mem.NewMemory()
		if in.Op.IsMem() {
			img.Store(uint32(r.Int(in.Rs)+int64(in.Imm)), 8, 0x8877665544332211)
		}

		re, me := r, img.Clone()
		var eff emu.Effect
		if !emu.Exec(in, int(pc), &re, me, &eff) {
			t.Fatalf("%s: Exec cannot execute a decoded word", in)
		}
		if re[0] != 0 {
			t.Fatalf("%s wrote r0", in)
		}
		for i := range re {
			if re[i] != r[i] && !(eff.HasDest && isa.Reg(i) == eff.DestReg) {
				t.Fatalf("%s changed %s, not its destination", in, isa.Reg(i))
			}
		}
		if rd, ok := in.Dest(); ok != eff.HasDest || (ok && (rd != eff.DestReg || re[rd] != eff.DestVal)) {
			t.Fatalf("%s: destination %v %s %#x, register file disagrees", in, eff.HasDest, eff.DestReg, eff.DestVal)
		}

		rp, mp := r, img.Clone()
		effP, k := cpu.EvalP(in, int(pc), &rp, mp)
		if k != cpu.PFaultNone {
			if rp != r || mp.Hash() != img.Hash() {
				t.Fatalf("%s: fault %v changed state", in, k)
			}
			return
		}
		if effP.Addr != eff.Addr || effP.HasDest != eff.HasDest || effP.DestReg != eff.DestReg || effP.DestVal != eff.DestVal {
			t.Fatalf("%s: p-thread %+v, emulator %+v", in, effP, eff)
		}
	})
}
