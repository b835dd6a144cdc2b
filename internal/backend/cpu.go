package backend

import "tnsr/internal/tns"

// Trap codes raised by simulated execution. The numbering is part of the
// cross-backend runtime contract: the mixed-mode driver keys its recovery
// paths off these values.
const (
	TrapNone      = 0
	TrapOverflow  = 1 // trapping add/subtract signed overflow
	TrapAddress   = 2 // unaligned or out-of-range access
	TrapBadInstr  = 3
	TrapDivZero   = 4 // raised by millicode via BREAK, not by divide itself
	TrapProtected = 5 // store into the fenced runtime-table region
)

// CPU is the simulator state shared by every backend: the architectural
// state of the 32-register TNS/R machine plus the host-facing stop,
// breakpoint and observation protocol. A backend's simulator embeds CPU
// and adds its private pipeline state (caches, delay slots, special
// registers); the mixed-mode driver and the debugger operate on CPU alone
// and stay target-independent.
//
// Code is held separately from data memory; PC values are word indexes
// into Code, and register-held code addresses are byte addresses, i.e. 4
// times the word index, on every backend.
type CPU struct {
	Code []uint32
	Mem  []byte
	Reg  [32]uint32
	PC   uint32 // word index of the next instruction to execute

	// Dirty records the pages of the TNS data region (the first
	// 2*tns.DataWords bytes of Mem) written since the mixed-mode runtime
	// last mirrored them into the interpreter's memory. Every store that
	// lands in the region marks it: simulated stores and the host-side
	// writes below alike.
	Dirty tns.PageSet

	Cycles int64
	Instrs int64

	// Stopped is set when a BREAK executes or a trap is raised; Run
	// returns to the host, which may adjust state and call Run again.
	Stopped   bool
	BreakCode uint32 // valid when stopped by BREAK
	Trap      int    // valid when stopped by a trap
	TrapPC    uint32

	// Breakpoints stops execution before the instruction at a word index
	// executes (BPHit is set). ResumeAt clears the hit and skips the
	// check for the first instruction so execution can continue.
	Breakpoints map[uint32]bool
	BPHit       bool

	// OnSyscall handles SYSCALL inline; execution continues after it
	// returns. The 20-bit code selects the service; arguments are in
	// registers per the millicode convention.
	OnSyscall func(c *CPU, code uint32)

	// StoreTrace, when non-nil, observes every halfword store into the
	// TNS data region (byte address, halfword value); the fidelity tests
	// compare it with the interpreter's trace.
	StoreTrace func(addr uint32, value uint16)

	// OnInstr, when non-nil, is called with the PC of every counted
	// instruction (after Instrs is incremented, so hook calls equal the
	// Instrs total exactly). Nil costs one comparison per step.
	OnInstr func(pc uint32)

	// ProtectedLo/ProtectedHi, when Hi > Lo, fence [Lo, Hi) of data
	// memory against simulated stores: the host lays the packed
	// PMap/EMap runtime tables there, and damaged translated code must
	// not be able to rewrite the structures the recovery path depends
	// on. A store into the range raises TrapProtected. Host-side writes
	// (WriteWord and friends) bypass the fence.
	ProtectedLo uint32
	ProtectedHi uint32
}

// Core returns the shared state itself; embedding CPU therefore satisfies
// the Sim interface's Core method for every backend simulator.
func (c *CPU) Core() *CPU { return c }

// ReadHalf reads a big-endian halfword from data memory (host convenience).
func (c *CPU) ReadHalf(addr uint32) uint16 {
	return uint16(c.Mem[addr])<<8 | uint16(c.Mem[addr+1])
}

// WriteHalf writes a big-endian halfword to data memory (host convenience).
func (c *CPU) WriteHalf(addr uint32, v uint16) {
	c.Mem[addr] = byte(v >> 8)
	c.Mem[addr+1] = byte(v)
	c.Dirty.MarkByte(addr)
	c.Dirty.MarkByte(addr + 1) // an unaligned write may straddle two pages
}

// WriteWord writes a big-endian word to data memory (host convenience).
func (c *CPU) WriteWord(addr uint32, v uint32) {
	c.WriteHalf(addr, uint16(v>>16))
	c.WriteHalf(addr+2, uint16(v))
}
