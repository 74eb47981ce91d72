package cpu

import (
	"math"
	"testing"

	"spear/internal/emu"
	"spear/internal/isa"
	"spear/internal/mem"
)

// TestEvalPDropsFPWriteToR0 is the regression test for the p-thread
// writing FP results into r0: as in the emulator, the write is dropped, so
// a later read of r0 sees 0, and the instruction reports no destination
// (a destination would make later readers of r0 wait on it).
func TestEvalPDropsFPWriteToR0(t *testing.T) {
	var r emu.Regs
	r[isa.FP0+1] = math.Float64bits(1.5)
	r[isa.FP0+2] = math.Float64bits(2.0)
	m := &pMem{scratch: map[uint32]byte{}, image: mem.NewMemory()}

	eff, k := EvalP(isa.Instruction{Op: isa.FADD, Rd: 0, Rs: isa.FP0 + 1, Rt: isa.FP0 + 2}, 0, &r, m)
	if k != PFaultNone {
		t.Fatalf("fadd r0, f1, f2 faulted: %v", k)
	}
	if eff.HasDest {
		t.Errorf("fadd r0, f1, f2 reports destination %s", eff.DestReg)
	}
	if _, k := EvalP(isa.Instruction{Op: isa.FMOV, Rd: isa.FP0 + 4, Rs: 0}, 1, &r, m); k != PFaultNone {
		t.Fatalf("fmov f4, r0 faulted: %v", k)
	}
	if f4 := r.Float(isa.FP0 + 4); f4 != 0 {
		t.Errorf("f4 = %v after fadd r0, f1, f2; fmov f4, r0, want 0", f4)
	}
}

// TestPMemLeavesImageUntouched checks the p-thread memory view: stores
// land in the scratch buffer and are read back, loads of never-written
// addresses read zero, and neither creates a page in the shared image.
func TestPMemLeavesImageUntouched(t *testing.T) {
	img := mem.NewMemory()
	img.WriteU64(0x10_0000, 0x1122334455667788)
	pages, hash := img.Pages(), img.Hash()
	m := &pMem{scratch: map[uint32]byte{}, image: img}

	if got := m.Load(0x10_0000, 8); got != 0x1122334455667788 {
		t.Errorf("load of the image = %#x", got)
	}
	m.Store(0x10_0004, 2, 0xAABB)
	if got := m.Load(0x10_0000, 8); got != 0x1122AABB55667788 {
		t.Errorf("load over the scratch buffer = %#x", got)
	}
	if got := m.Load(0x4000_0000, 4); got != 0 {
		t.Errorf("load of an unmapped address = %#x", got)
	}
	m.Store(0x5000_0000, 8, 1)
	if img.Pages() != pages || img.Hash() != hash {
		t.Error("p-thread memory traffic changed the shared image")
	}
}
