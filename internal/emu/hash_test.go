package emu

import (
	"math"
	"testing"

	"spear/internal/isa"
)

// StateHash is the architectural fingerprint the fault-containment tests
// compare across the emulator, the baseline pipeline, and every SPEAR
// machine; it must be deterministic and sensitive to every component of
// the architectural state.

const hashProg = `
        .data
buf:    .space 64
        .text
main:   li   r1, 41
        addi r1, r1, 1
        la   r2, buf
        sd   r1, 8(r2)
        halt
`

func TestStateHashDeterministic(t *testing.T) {
	a, b := run(t, hashProg), run(t, hashProg)
	if a.StateHash() != b.StateHash() {
		t.Error("identical runs produce different state hashes")
	}
}

func TestStateHashSensitivity(t *testing.T) {
	m := run(t, hashProg)
	base := m.StateHash()

	m.Regs[5]++
	if m.StateHash() == base {
		t.Error("hash ignores integer registers")
	}
	m.Regs[5]--

	m.Regs[isa.FP0+3] = math.Float64bits(1.5)
	if m.StateHash() == base {
		t.Error("hash ignores FP registers")
	}
	m.Regs[isa.FP0+3] = 0

	m.Count++
	if m.StateHash() == base {
		t.Error("hash ignores the retired-instruction count")
	}
	m.Count--

	m.Halted = false
	if m.StateHash() == base {
		t.Error("hash ignores the halt flag")
	}
	m.Halted = true

	m.Mem.WriteU8(0x0010_0000, 0xFF)
	if m.StateHash() == base {
		t.Error("hash ignores memory contents")
	}
	m.Mem.WriteU8(0x0010_0000, 0)

	if m.StateHash() != base {
		t.Error("hash not restored after reverting every perturbation")
	}
}
