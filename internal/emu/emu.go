// Package emu defines SPISA's semantics and implements the functional
// (architectural) emulator on top of them.
//
// Exec is the one definition of what each instruction does; it runs over a
// register file and a Memory. The emulator applies it to committed state.
// The cycle-level core's p-thread applies it to speculative state: its own
// registers and a store buffer layered over the shared image. The emulator
// is used three ways: the SPEAR profiler drives it to collect run-time
// information; the workload suite validates its kernels on it; and the
// cycle-level core is tested against it instruction-for-instruction (the
// two must produce identical architectural results).
package emu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"spear/internal/isa"
	"spear/internal/mem"
	"spear/internal/prog"
)

// StackTop is the initial stack pointer (stacks grow down).
const StackTop uint32 = 0x7FFF_FF00

// ErrLimit is returned by Run when the instruction budget is exhausted
// before the program halts.
var ErrLimit = errors.New("emu: instruction limit reached")

// Event describes one retired instruction, for observation hooks. Its
// Effect's destination outcome feeds the cycle simulator's commit-time
// shadow state.
type Event struct {
	Seq   uint64 // retirement sequence number, starting at 0
	PC    int    // instruction index
	Instr isa.Instruction
	Effect
}

// Machine is the architectural state of one SPISA program.
type Machine struct {
	Prog   *prog.Program
	Mem    *mem.Memory
	Regs   Regs
	PC     int
	Halted bool
	Count  uint64 // retired instructions

	// Hook, when non-nil, observes every retired instruction.
	Hook func(*Event)
}

// New loads the program image into a fresh memory and positions the machine
// at the entry point.
func New(p *prog.Program) *Machine {
	m := NewWithMemory(p, mem.NewMemory())
	for _, d := range p.Data {
		m.Mem.WriteBytes(d.Addr, d.Bytes)
	}
	return m
}

// NewWithMemory attaches the machine to an existing memory image without
// re-initializing it (used to share a prepared image across runs).
func NewWithMemory(p *prog.Program, memory *mem.Memory) *Machine {
	m := &Machine{Prog: p, Mem: memory, PC: p.Entry}
	m.Regs[isa.RegSP] = uint64(StackTop)
	return m
}

// StateHash fingerprints the machine's architectural state: retired
// count, PC, halt flag, every register (r0..r31, then f0..f31, as bit
// patterns), and the memory image (FNV-1a, materialization-independent).
// Two machines that executed the same program to the same point hash
// identically; the cycle simulator uses it to prove that speculative
// p-thread activity left no architectural trace.
func (m *Machine) StateHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(m.Count)
	put(uint64(int64(m.PC)))
	if m.Halted {
		put(1)
	} else {
		put(0)
	}
	for _, r := range m.Regs {
		put(r)
	}
	put(m.Mem.Hash())
	return h.Sum64()
}

// Run executes until HALT or until maxInstr instructions have retired.
func (m *Machine) Run(maxInstr uint64) error {
	for !m.Halted {
		if m.Count >= maxInstr {
			return ErrLimit
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Step retires exactly one instruction.
func (m *Machine) Step() error {
	if m.Halted {
		return errors.New("emu: machine is halted")
	}
	if m.PC < 0 || m.PC >= len(m.Prog.Text) {
		return fmt.Errorf("emu: PC %d out of text range [0,%d)", m.PC, len(m.Prog.Text))
	}
	in := m.Prog.Text[m.PC]
	ev := &Event{Seq: m.Count, PC: m.PC, Instr: in}
	if !Exec(in, m.PC, &m.Regs, m.Mem, &ev.Effect) {
		return fmt.Errorf("emu: PC %d: cannot execute %s", m.PC, in)
	}
	m.Halted = ev.Halt
	m.Count++
	if m.Hook != nil {
		m.Hook(ev)
	}
	m.PC = ev.NextPC
	return nil
}

// Reg reads register r as an integer (helper for tests and the harness).
func (m *Machine) Reg(r isa.Reg) int64 { return m.Regs.Int(r) }

// FReg reads floating-point register f<i>.
func (m *Machine) FReg(i int) float64 { return m.Regs.Float(isa.FP0 + isa.Reg(i)) }
