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
// CPU also owns the data-memory path every target executes loads and
// stores through ([CPU.LoadHalf], [CPU.StoreHalf] and the other widths):
// alignment and bounds traps, the code window, the table fence, the store
// trace and dirty-page marking. A target keeps its decode, instruction
// semantics and timing.
//
// A CPU's data memory is its creator's: [Program.NewSim] takes it as it
// is, and the mixed-mode runtime recycles it between runners.
//
// Code is not part of CPU: it lives, decoded, in the [Program] the
// simulator was built from and is shared by every simulator of that
// program. PC values are word indexes into the program's code space, and
// register-held code addresses are byte addresses, i.e. 4 times the word
// index, on every backend.
type CPU struct {
	Mem []byte
	Reg [32]uint32
	PC  uint32 // word index of the next instruction to execute

	// Dirty records the pages of the TNS data region (the first
	// 2*tns.DataWords bytes of Mem) written since the mixed-mode runtime
	// last mirrored them into the interpreter's memory. Every store that
	// lands in the region marks it: simulated stores and the host-side
	// writes below alike. A store that lands beyond the region sets
	// DirtyBeyond instead, and nothing ever clears it: the memory above
	// the region then holds a write no page set recorded.
	Dirty       tns.PageSet
	DirtyBeyond bool

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
	SkipBP      bool // set by ResumeAt; the step clears it

	// OnSyscall handles SYSCALL inline; execution continues after it
	// returns. The 20-bit code selects the service; arguments are in
	// registers per the millicode convention.
	OnSyscall func(c *CPU, code uint32)

	// StoreTrace, when non-nil, observes every halfword store into the
	// TNS data region (byte address, halfword value); the fidelity tests
	// compare it with the interpreter's trace.
	StoreTrace func(addr uint32, value uint16)

	// Counts, when non-nil, counts every instruction the step counts in
	// Instrs, in its word's count slot (CodeImage.Slot), so the counts
	// sum to the instructions executed while it is attached; it must
	// hold the code image's Slots() slots. The mixed-mode runtime
	// attaches it to observe a run. Nil costs one comparison per step,
	// and attached it costs an increment: no call.
	Counts []int64

	// OnInstr, when non-nil, is called with the PC of every counted
	// instruction (after Instrs is incremented, so hook calls equal the
	// Instrs total exactly). It is the per-step reference the tests hold
	// Counts to; nothing else sets it. Nil costs one comparison per step.
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

// ResumeAt clears the stop condition and continues execution at word index
// pc on the next Run. A target with pipeline state of its own to reset
// wraps it.
func (c *CPU) ResumeAt(pc uint32) {
	c.PC = pc
	c.Stopped = false
	c.BreakCode = 0
	c.Trap = TrapNone
	c.BPHit = false
	c.SkipBP = true
}

// RaiseTrap stops execution with a trap at the current PC.
func (c *CPU) RaiseTrap(code int) {
	c.Trap = code
	c.TrapPC = c.PC
	c.Stopped = true
}

// CodeWindow maps the code space read-only into data addresses on every
// target: code word i is a 32-bit load at CodeWindow + 4i (translated CASE
// tables live in the code stream and are read through it).
const CodeWindow = 0x01000000

// The data-memory path. A target's step calls these directly for each
// load and store width; the byte and halfword loads inline there. Loads
// return the unsigned big-endian value (the target sign-extends); an
// unaligned or out-of-range address raises TrapAddress and returns false.
// Stores raise TrapProtected inside the fenced table region and
// TrapAddress when unaligned or out of range, and then write nothing;
// every store that lands marks its page dirty (or DirtyBeyond), and a byte
// or halfword store reports its halfword to StoreTrace (a word store is not
// traced).

// LoadByte reads the byte at data address addr.
func (c *CPU) LoadByte(addr uint32) (uint32, bool) {
	if int(addr) < len(c.Mem) {
		return uint32(c.Mem[addr]), true
	}
	return c.badLoad()
}

// LoadHalf reads the halfword at data address addr.
func (c *CPU) LoadHalf(addr uint32) (uint32, bool) {
	if addr&1 == 0 && int(addr)+1 < len(c.Mem) {
		return uint32(c.Mem[addr])<<8 | uint32(c.Mem[addr+1]), true
	}
	return c.badLoad()
}

// LoadWord reads the word at data address addr or, at or above
// CodeWindow, the word of code there.
func (c *CPU) LoadWord(addr uint32, code *CodeImage) (uint32, bool) {
	if addr >= CodeWindow {
		if i := (addr - CodeWindow) >> 2; addr&3 == 0 && int(i) < code.Len() {
			return code.Word(i), true
		}
	} else if addr&3 == 0 && int(addr)+3 < len(c.Mem) {
		m := c.Mem[addr : addr+4]
		return uint32(m[0])<<24 | uint32(m[1])<<16 | uint32(m[2])<<8 | uint32(m[3]), true
	}
	return c.badLoad()
}

func (c *CPU) badLoad() (uint32, bool) {
	c.RaiseTrap(TrapAddress)
	return 0, false
}

// StoreByte writes the low byte of v at data address addr.
func (c *CPU) StoreByte(addr, v uint32) bool {
	if c.fenced(addr) || int(addr) >= len(c.Mem) {
		return c.badStore(addr)
	}
	c.Mem[addr] = byte(v)
	if c.StoreTrace != nil {
		// Report the containing halfword so byte stores compare
		// against the interpreter's word-level trace.
		ha := addr &^ 1
		c.StoreTrace(ha, uint16(c.Mem[ha])<<8|uint16(c.Mem[ha+1]))
	}
	c.mark(addr)
	return true
}

// StoreHalf writes the low halfword of v at data address addr.
func (c *CPU) StoreHalf(addr, v uint32) bool {
	if c.fenced(addr) || addr&1 != 0 || int(addr)+1 >= len(c.Mem) {
		return c.badStore(addr)
	}
	c.Mem[addr] = byte(v >> 8)
	c.Mem[addr+1] = byte(v)
	if c.StoreTrace != nil {
		c.StoreTrace(addr, uint16(v))
	}
	c.mark(addr)
	return true
}

// StoreWord writes v at data address addr.
func (c *CPU) StoreWord(addr, v uint32) bool {
	if c.fenced(addr) || addr&3 != 0 || int(addr)+3 >= len(c.Mem) {
		return c.badStore(addr)
	}
	m := c.Mem[addr : addr+4]
	m[0], m[1], m[2], m[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	c.mark(addr)
	return true
}

// mark records a write at data address addr: its page in Dirty or, beyond
// the TNS data region, DirtyBeyond. The flag costs only the branch that
// MarkByte's bounds check already takes.
func (c *CPU) mark(addr uint32) {
	if !c.Dirty.MarkByte(addr) {
		c.DirtyBeyond = true
	}
}

func (c *CPU) fenced(addr uint32) bool {
	return c.ProtectedHi > c.ProtectedLo && addr >= c.ProtectedLo && addr < c.ProtectedHi
}

func (c *CPU) badStore(addr uint32) bool {
	if c.fenced(addr) {
		c.RaiseTrap(TrapProtected)
	} else {
		c.RaiseTrap(TrapAddress)
	}
	return false
}

// B2U converts a comparison result to the 0/1 a set-on-less-than writes.
func B2U(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// ReadHalf reads a big-endian halfword from data memory (host convenience).
func (c *CPU) ReadHalf(addr uint32) uint16 {
	return uint16(c.Mem[addr])<<8 | uint16(c.Mem[addr+1])
}

// WriteHalf writes a big-endian halfword to data memory (host convenience).
func (c *CPU) WriteHalf(addr uint32, v uint16) {
	c.Mem[addr] = byte(v >> 8)
	c.Mem[addr+1] = byte(v)
	c.mark(addr)
	c.mark(addr + 1) // an unaligned write may straddle two pages
}

// WriteWord writes a big-endian word to data memory (host convenience).
func (c *CPU) WriteWord(addr uint32, v uint32) {
	c.WriteHalf(addr, uint16(v>>16))
	c.WriteHalf(addr+2, uint16(v))
}
