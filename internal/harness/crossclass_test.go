package harness

import (
	"testing"

	"spear/internal/asm"
	"spear/internal/cpu"
	"spear/internal/emu"
)

// crossClassProg names FP registers where an integer operand and a base
// register are expected. Both assemble and validate; the defined behaviour
// is that an integer read of an FP register reads its bit pattern, so f3
// (loaded with the address of buf) works as a pointer.
const crossClassProg = `
        .data
buf:    .quad 7, 0
        .text
main:   la   r2, buf
        sd   r2, 8(r2)
        fld  f3, 8(r2)
        add  r1, f3, r2
        ld   r4, 0(f3)
        sub  r5, r1, r2
        halt
`

// TestCrossClassOperandsRunEverywhere is the regression test for the
// emulator panicking (register index out of range) on integer reads of FP
// registers: the emulator and every standard machine must run the program
// to the same committed count and final state.
func TestCrossClassOperandsRunEverywhere(t *testing.T) {
	p, err := asm.Assemble("crossclass.s", crossClassProg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	m := emu.New(p)
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got := m.Reg(4); got != 7 {
		t.Errorf("ld r4, 0(f3) = %d, want 7", got)
	}
	if got, want := m.Reg(5), m.Reg(2); got != want {
		t.Errorf("add r1, f3, r2 minus r2 = %#x, want the address of buf %#x", got, want)
	}
	for _, cfg := range StandardConfigs() {
		res, err := cpu.Run(p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if res.MainCommitted != m.Count || res.FinalStateHash != m.StateHash() {
			t.Errorf("%s: committed %d hash %#x, emulator %d %#x",
				cfg.Name, res.MainCommitted, res.FinalStateHash, m.Count, m.StateHash())
		}
	}
}
